package repro.profile

import org.apache.spark.sql.SparkSession
import scala.util.hashing.MurmurHash3

import repro.core.{AugmentEngine, Candidate}
import repro.util.Stats

/** The vector of data profiles of every candidate augmentation (§II-C).
  *
  * Five profiles, all normalised to [0,1]:
  *   - `corr`    |Pearson correlation| of the augmented column with the
  *               task's target attribute, on a small sample
  *   - `mi`      normalised mutual information with the target (equi-rank
  *               binned), on the same sample
  *   - `embed`   semantic similarity of the candidate table to `D_in`
  *               (hashed-token embedding cosine; BERT substitute)
  *   - `meta`    metadata similarity: attribute-name Jaccard and source
  *               match (the paper's syntactic Ver/S4-style profile)
  *   - `overlap` fraction of sampled `D_in` keys with a join match — the
  *               cardinality-after-augmentation profile
  */
final case class Profiles(names: Vector[String], byId: Map[Int, Array[Double]]) {
  def dim: Int = names.length
  def of(c: Candidate): Array[Double] = byId(c.id)
  def profileIndex(name: String): Int = names.indexOf(name)
}

object Profiler {

  val ProfileNames: Vector[String] = Vector("corr", "mi", "embed", "meta", "overlap")

  /** Deterministic sample of `n` row indices of the input (pseudo-shuffle
    * by murmur hash, as the paper profiles "a random sample of 100
    * records").
    */
  def sampleIndices(nRows: Int, n: Int, seed: Long): Array[Int] =
    (0 until nRows).sortBy(i => MurmurHash3.stringHash(s"$seed:$i")).take(n).toArray.sorted

  /** Compute the profile vector of every candidate.
    *
    * One driver-side path for every candidate, 1-hop or multi-hop:
    * `engine.prefetch` materialises the Γ columns (batched Spark jobs,
    * memoised ones skipped), then corr, MI and overlap are computed on the
    * sampled rows of each column with the estimators in [[Stats]]. The
    * driver sums in a fixed order, so the profiles do not depend on Spark
    * partitioning. `spark` is unused; it is kept for callers' signatures.
    */
  def profileAll(
      spark: SparkSession,
      engine: AugmentEngine,
      cands: Seq[Candidate],
      targetCol: String,
      sampleSize: Int = 100,
      bins: Int = 8,
      seed: Long = 17,
  ): Profiles = {
    val input = engine.input
    val idx = sampleIndices(input.nRows, sampleSize, seed)
    val target = input.numeric(targetCol)
    val ys = idx.map(i => target(i))
    engine.prefetch(cands)

    val byId = cands.map { c =>
      val colVals = engine.column(c)
      val xs = idx.map(i => colVals(i).flatMap(_.toDoubleOption))
      val corrV = math.abs(Stats.pearson(xs, ys))
      val miV = Stats.rankMutualInformation(xs, ys, bins)
      // Overlap counts joined values even when not numeric.
      val matched = idx.count(i => colVals(i).isDefined)
      val overlapV = if (idx.isEmpty) 0.0 else matched.toDouble / idx.length
      val tMeta = engine.lake.table(c.table).meta
      val embedV = TokenEmbedding.similarity(
        input.meta.vocabulary ++ input.columnNames,
        tMeta.vocabulary ++ engine.lake.table(c.table).columnNames,
      )
      val metaV = metadataSimilarity(
        input.columnNames.toSet, input.meta.source,
        engine.lake.table(c.table).columnNames.toSet, tMeta.source,
      )
      c.id -> Array(
        Stats.clamp01(corrV), Stats.clamp01(miV), Stats.clamp01(embedV),
        Stats.clamp01(metaV), Stats.clamp01(overlapV),
      )
    }.toMap

    Profiles(ProfileNames, byId)
  }

  /** Attribute-name Jaccard blended with a source-equality indicator. */
  def metadataSimilarity(aAttrs: Set[String], aSource: String, bAttrs: Set[String], bSource: String): Double = {
    val tokensA = aAttrs.flatMap(_.toLowerCase.split("[_\\s]+"))
    val tokensB = bAttrs.flatMap(_.toLowerCase.split("[_\\s]+"))
    val jac =
      if (tokensA.isEmpty || tokensB.isEmpty) 0.0
      else tokensA.intersect(tokensB).size.toDouble / tokensA.union(tokensB).size
    0.5 * jac + 0.5 * (if (aSource == bSource) 1.0 else 0.0)
  }
}
