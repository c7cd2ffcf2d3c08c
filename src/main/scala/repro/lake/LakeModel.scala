package repro.lake

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Metadata describing a lake table — the substrate for the paper's
  * metadata/attributes profile and the semantic-embedding profile.
  *
  * @param name       unique table name within the repository
  * @param source     data source / portal the table came from (paper: NYC
  *                   open data, worldbank, kaggle, ...)
  * @param keyCols    columns that act as join keys (what Aurum would index)
  * @param vocabulary tokens describing the table's topic; stands in for the
  *                   token stream a BERT-style embedder would consume
  */
final case class TableMeta(
    name: String,
    source: String,
    keyCols: Vector[String],
    vocabulary: Vector[String],
)

/** A column-oriented table small enough to keep a driver-side copy.
  *
  * The driver copy is the ground truth used by the deterministic task
  * implementations; `toDf` is the Spark adapter used by discovery and
  * augmentation joins. Values are stored as strings so one
  * representation serves numeric columns, join keys, and entity names.
  */
final case class LakeTable(
    meta: TableMeta,
    columns: Vector[(String, Array[Option[String]])],
) {
  require(columns.nonEmpty, s"table ${meta.name} has no columns")
  require(columns.map(_._2.length).distinct.size == 1, s"ragged columns in ${meta.name}")
  require(columns.map(_._1).distinct.size == columns.size, s"duplicate column names in ${meta.name}")

  def nRows: Int = columns.head._2.length
  def nCols: Int = columns.size
  def columnNames: Vector[String] = columns.map(_._1)

  def column(name: String): Array[Option[String]] =
    columns.find(_._1 == name).getOrElse(sys.error(s"no column $name in ${meta.name}"))._2

  /** Numeric view of a column: entries that fail to parse become None. */
  def numeric(name: String): Array[Option[Double]] =
    column(name).map(_.flatMap(_.toDoubleOption))

  /** Spark view with a stable `__rowid` (the driver row index), so join
    * results can be realigned with the driver copy deterministically.
    */
  def toDf(spark: SparkSession): DataFrame = {
    val schema = StructType(
      StructField("__rowid", LongType, nullable = false) +:
        columns.map { case (n, _) => StructField(n, StringType, nullable = true) }
    )
    val rows = (0 until nRows).map { i =>
      Row.fromSeq(i.toLong +: columns.map(_._2(i).orNull))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 4), schema)
  }
}

object LakeTable {

  /** Build from named columns of doubles (the common numeric case). */
  def numericTable(meta: TableMeta, cols: (String, Array[Double])*): LakeTable =
    LakeTable(meta, cols.toVector.map { case (n, vs) => n -> vs.map(v => Some(v.toString): Option[String]) })
}

/** A data repository (Definition 2): a set of possibly noisy tables. */
final case class Lake(tables: Vector[LakeTable]) {
  require(tables.map(_.meta.name).distinct.size == tables.size, "duplicate table names in lake")

  private val byName: Map[String, LakeTable] = tables.map(t => t.meta.name -> t).toMap

  def table(name: String): LakeTable =
    byName.getOrElse(name, sys.error(s"no table $name in lake"))

  def size: Int = tables.size

  /** Tall (table, col, __rowid, value) view of every key column — the
    * cell-level inverted index Aurum-lite discovers joins over.
    */
  def keyCellsDf(spark: SparkSession): DataFrame = {
    val schema = StructType(Seq(
      StructField("table", StringType, nullable = false),
      StructField("col", StringType, nullable = false),
      StructField("__rowid", LongType, nullable = false),
      StructField("value", StringType, nullable = true),
    ))
    val rows = for {
      t <- tables
      kc <- t.meta.keyCols
      vals = t.column(kc)
      i <- 0 until t.nRows
    } yield Row(t.meta.name, kc, i.toLong, vals(i).orNull)
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
  }

  /** Tall (table, valueCol, key, value) view pairing each non-key column
    * with the table's first key column — the input of
    * `AugmentEngine.prefetch`, which materialises every 1-hop candidate
    * through that key with one join per join column of `D_in`.
    */
  def valueCellsDf(spark: SparkSession): DataFrame = {
    val schema = StructType(Seq(
      StructField("table", StringType, nullable = false),
      StructField("valueCol", StringType, nullable = false),
      StructField("key", StringType, nullable = true),
      StructField("value", StringType, nullable = true),
    ))
    val rows = for {
      t <- tables
      keyCol = t.meta.keyCols.headOption.getOrElse(t.columnNames.head)
      keys = t.column(keyCol)
      (cn, vals) <- t.columns if !t.meta.keyCols.contains(cn)
      i <- 0 until t.nRows
    } yield Row(t.meta.name, cn, keys(i).orNull, vals(i).orNull)
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
  }
}

/** A driver-side column: its string cells and their numeric view, which is
  * parsed on first use and then kept, so every table sharing the column
  * parses it once.
  */
final class LocalColumn(val values: Array[Option[String]]) {

  /** The cells as doubles: a missing cell or one that does not parse is None. */
  lazy val numeric: Array[Option[Double]] = values.map(_.flatMap(_.toDoubleOption))
}

/** Column-oriented local view of an (augmented) dataset — what the
  * deterministic black-box tasks consume.
  */
final class LocalTable(cols: Vector[(String, LocalColumn)]) {
  require(cols.map(_._2.values.length).distinct.size <= 1, "ragged columns")

  def columns: Vector[(String, Array[Option[String]])] = cols.map { case (n, c) => n -> c.values }
  def nRows: Int = if (cols.isEmpty) 0 else cols.head._2.values.length
  def columnNames: Vector[String] = cols.map(_._1)
  def has(name: String): Boolean = cols.exists(_._1 == name)

  private def find(name: String): LocalColumn =
    cols.find(_._1 == name).getOrElse(sys.error(s"no column $name"))._2

  def column(name: String): Array[Option[String]] = find(name).values

  def numeric(name: String): Array[Option[Double]] = find(name).numeric

  def add(name: String, values: Array[Option[String]]): LocalTable = {
    require(cols.isEmpty || values.length == nRows, "row count mismatch")
    new LocalTable(cols :+ (name -> new LocalColumn(values)))
  }
}

object LocalTable {

  /** A table over fresh columns (each parsed on its first numeric use). */
  def apply(columns: Vector[(String, Array[Option[String]])]): LocalTable =
    new LocalTable(columns.map { case (n, v) => n -> new LocalColumn(v) })
}
