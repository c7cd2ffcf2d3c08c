package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col, min => sparkMin}
import scala.collection.mutable

import repro.lake.{Lake, LakeTable, LocalColumn, LocalTable}

/** One hop of a join path (Definition 3): join the previous table's
  * `leftCol` with `rightTable.rightKeyCol`.
  */
final case class JoinEdge(leftCol: String, rightTable: String, rightKeyCol: String)

/** A candidate augmentation (Definition 4): the projection of a single
  * column `valueCol` after materialising join path `edges` onto `D_in`.
  */
final case class Candidate(id: Int, edges: Vector[JoinEdge], valueCol: String) {
  require(edges.nonEmpty, "a candidate needs at least one join hop")

  /** Table the augmented column comes from (last hop of the path). */
  def table: String = edges.last.rightTable

  def hops: Int = edges.length

  /** Unique name of the augmented column in Γ(D_in, ·). */
  def name: String = s"aug_${id}__${table}__$valueCol"

  def describe: String =
    edges.map(e => s"${e.leftCol}→${e.rightTable}.${e.rightKeyCol}").mkString(" ⋈ ") + s" [$valueCol]"
}

/** Materialises augmentations Γ(D_in, P) as Spark DataFrame joins.
  *
  * Each single candidate's column is produced by a chain of (broadcast)
  * joins `D_in ⋈ T_1 ⋈ ... ⋈ T_h` followed by a `min(value)` aggregation
  * per `__rowid` (duplicate join keys must not multiply rows of `D_in`;
  * `min` is deterministic and matches what the DuckDB oracle computes).
  * Materialised columns are memoised: Γ(D_in, T ∪ {P}) shares P's column
  * with every other selection containing P, so a 1000-query search loop
  * issues each join once. Each memoised column and each input column keeps
  * its numeric view (parsed on the first task that reads it), so a column
  * is parsed once per engine, not once per query.
  */
final class AugmentEngine(spark: SparkSession, val input: LakeTable, val lake: Lake) {

  private val memo = mutable.HashMap.empty[Int, LocalColumn]
  private val inputColumns = input.columns.map { case (n, v) => n -> new LocalColumn(v) }

  /** Number of Spark materialisation jobs issued (for efficiency tests). */
  def materializations: Int = memo.size

  private lazy val inputDf: DataFrame = input.toDf(spark).cache()

  /** Spark plan producing `(__rowid, <candidate name>)` for one candidate. */
  def materializeDf(c: Candidate): DataFrame = {
    var df = inputDf.select(col("__rowid"), col(c.edges.head.leftCol).as("__jk"))
    c.edges.zipWithIndex.foreach { case (e, i) =>
      val right = lake.table(e.rightTable)
      val isLast = i == c.edges.length - 1
      val nextCol = if (isLast) c.valueCol else c.edges(i + 1).leftCol
      val rightDf = right
        .toDf(spark)
        .select(col(e.rightKeyCol).as("__rk"), col(nextCol).as("__nv"))
      df = df
        .join(broadcast(rightDf), df("__jk") === rightDf("__rk"), "left")
        .select(col("__rowid"), col("__nv").as("__jk"))
    }
    df.groupBy("__rowid").agg(sparkMin(col("__jk")).as(c.name))
  }

  /** Materialised column of `c`, aligned to `input` row order; memoised. */
  def column(c: Candidate): Array[Option[String]] = localColumn(c).values

  private def localColumn(c: Candidate): LocalColumn = memo.getOrElseUpdate(c.id, {
    val out = Array.fill[Option[String]](input.nRows)(None)
    materializeDf(c).collect().foreach { r =>
      val i = r.getLong(0).toInt
      if (i >= 0 && i < out.length) out(i) = Option(r.get(1)).map(_.toString)
    }
    new LocalColumn(out)
  })

  /** Batch-materialise every 1-hop candidate in one Spark job: the tall
    * (table, valueCol, key, value) cell view is joined against `D_in`'s
    * join-key column and reduced by `min(value)` per (candidate, row).
    * Multi-hop candidates fall back to `column`'s per-candidate chain.
    */
  def prefetch(cands: Seq[Candidate]): Unit = {
    // The tall cell view pairs value columns with each table's first key
    // column, so only candidates joining through that key can be batched.
    val (oneHop, rest) = cands.filter(c => !memo.contains(c.id)).partition { c =>
      c.hops == 1 &&
        lake.table(c.edges.head.rightTable).meta.keyCols.headOption.contains(c.edges.head.rightKeyCol)
    }
    if (oneHop.nonEmpty) {
      val byEdge = oneHop.groupBy(_.edges.head.leftCol)
      byEdge.foreach { case (leftCol, cs) =>
        val wanted = cs.map(c => (c.edges.head.rightTable, c.valueCol, c)).toVector
        val wantedSet = wanted.map(w => (w._1, w._2)).toSet
        val cells = lake
          .valueCellsDf(spark)
          .where(col("table").isin(wanted.map(_._1).distinct: _*))
        val base = inputDf.select(col("__rowid"), col(leftCol).as("__jk"))
        val joined = base
          .join(cells, base("__jk") === cells("key"), "left")
          .groupBy(col("__rowid"), col("table"), col("valueCol"))
          .agg(sparkMin(col("value")).as("v"))
          .collect()
        val buf = mutable.HashMap.empty[(String, String), Array[Option[String]]]
        joined.foreach { r =>
          if (!r.isNullAt(1)) {
            val k = (r.getString(1), r.getString(2))
            if (wantedSet.contains(k)) {
              val arr = buf.getOrElseUpdate(k, Array.fill[Option[String]](input.nRows)(None))
              val i = r.getLong(0).toInt
              if (i >= 0 && i < arr.length) arr(i) = Option(r.get(3)).map(_.toString)
            }
          }
        }
        wanted.foreach { case (t, vc, c) =>
          memo(c.id) = new LocalColumn(buf.getOrElse((t, vc), Array.fill[Option[String]](input.nRows)(None)))
        }
      }
    }
    rest.foreach(column)
  }

  /** Γ(D_in, sel) as a driver-side table: base columns plus one column per
    * selected candidate, aligned on `__rowid`.
    */
  def localTable(sel: Seq[Candidate]): LocalTable =
    new LocalTable(inputColumns ++ sel.toVector.map(c => c.name -> localColumn(c)))

  /** Γ(D_in, sel) as a Spark DataFrame — the distributed equivalent of
    * `localTable` (tests assert the two agree row for row).
    */
  def augmentedDf(sel: Seq[Candidate]): DataFrame =
    sel.foldLeft(inputDf)((df, c) => df.join(broadcast(materializeDf(c)), Seq("__rowid"), "left"))
}
