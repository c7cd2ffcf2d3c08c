package repro.tasks

import repro.lake.LocalTable
import repro.util.Stats

/** The concrete downstream tasks of the evaluation (§VI): supervised
  * classification/regression, causal what-if/how-to analysis, entity
  * linking, fairness-aware classification, and clustering.
  */
object Tasks {

  /** Columns usable as numeric features: ≥3 parsed values and ≥90% of the
    * non-null entries parse as doubles (join keys and entity names drop
    * out naturally).
    */
  def featureColumns(table: LocalTable, excluded: Set[String]): Vector[String] =
    table.columnNames.filterNot(excluded.contains).filter { c =>
      val nonNull = table.column(c).count(_.isDefined)
      val parsed = table.numeric(c).count(_.isDefined)
      parsed >= 3 && nonNull > 0 && parsed.toDouble / nonNull >= 0.9
    }

  /** Forest predictions on the validation rows of a deterministic split,
    * with the matching targets: the core the forest-backed tasks share.
    */
  private def validationPredictions(
      table: LocalTable, feats: Vector[String], y: Array[Double], validFrac: Double, seed: Long,
  ): (Array[Double], Array[Double]) = {
    val x = Learners.designMatrix(feats.map(table.numeric))
    val (train, valid) = Learners.split(y.length, validFrac, seed)
    val forest = Learners.trainForest(
      Learners.selectRows(x, train), Learners.gather(y, train), Learners.ForestConfig(seed = seed))
    (forest.predict(x, valid), Learners.gather(y, valid))
  }

  /** Supervised classification (paper: random-forest price / schools
    * tasks). Trains a forest on a deterministic split and returns the
    * validation metric (F1 by default) as utility.
    */
  final case class ClassificationTask(
      name: String,
      targetCol: String,
      excluded: Set[String],
      useAccuracy: Boolean = false,
      validFrac: Double = 0.35,
      seed: Long = 23,
  ) extends Task {

    def utility(table: LocalTable): Double = {
      val y = table.numeric(targetCol).map(_.getOrElse(0.0))
      val feats = featureColumns(table, excluded + targetCol)
      if (feats.isEmpty) return 0.0
      val (pred, actual) = validationPredictions(table, feats, y, validFrac, seed)
      Stats.clamp01(if (useAccuracy) Stats.accuracy(pred, actual) else Stats.f1(pred, actual))
    }
  }

  /** Supervised regression (paper: NYC collisions). Target is expected in
    * [0,1]; utility is 1 − MAE on the validation split (the paper's
    * "returns 1-MAE as utility").
    */
  final case class RegressionTask(
      name: String,
      targetCol: String,
      excluded: Set[String],
      validFrac: Double = 0.35,
      seed: Long = 29,
  ) extends Task {

    def utility(table: LocalTable): Double = {
      val y = table.numeric(targetCol).map(_.getOrElse(0.0))
      val feats = featureColumns(table, excluded + targetCol)
      if (feats.isEmpty) return 0.0
      val (pred, actual) = validationPredictions(table, feats, y, validFrac, seed)
      Stats.clamp01(1.0 - Stats.mae(pred, actual))
    }
  }

  /** Causal what-if / how-to analysis (paper §VI-A): the task runs a
    * dependence-discovery pass — every attribute with a statistically
    * significant association to the outcome (Fisher-z p < `pThreshold` and
    * |r| ≥ `rMin` over ≥ `minPairs` joined rows) is "identified" — and
    * utility is the fraction of the `k` ground-truth causal signals
    * covered by an identified attribute. `signalOf` maps an attribute name
    * to the planted causal signal it carries, if any (the ground truth a
    * study would validate against).
    */
  final case class CausalTask(
      name: String,
      outcomeCol: String,
      excluded: Set[String],
      signalOf: String => Option[Int],
      k: Int,
      pThreshold: Double = 0.05,
      rMin: Double = 0.2,
      minPairs: Int = 30,
  ) extends Task {
    require(k > 0, "k must be positive")

    def utility(table: LocalTable): Double = {
      val outcome = table.numeric(outcomeCol)
      val identified = table.columnNames
        .filterNot(c => c == outcomeCol || excluded.contains(c))
        .filter { c =>
          val xs = table.numeric(c)
          val pairs = xs.indices.count(i => xs(i).isDefined && outcome(i).isDefined)
          if (pairs < minPairs) false
          else {
            val r = Stats.pearson(xs, outcome)
            math.abs(r) >= rMin && Stats.fisherPValue(r, pairs) < pThreshold
          }
        }
      val signals = identified.flatMap(c => signalOf(c)).toSet
      signals.size.toDouble / k
    }
  }

  /** Entity linking (paper §VI-A-4): link each row's `entityCol` value to
    * a knowledge-base entity. Ambiguous mentions (several KB entries) can
    * only be resolved when some augmented column supplies the
    * disambiguating context value; utility is linking accuracy against
    * `truth`.
    *
    * @param kb    mention → candidate (entityId, contextValue) entries
    * @param truth per-row ground-truth entity id
    */
  final case class EntityLinkingTask(
      name: String,
      entityCol: String,
      kb: Map[String, Vector[(String, String)]],
      truth: Array[String],
      excluded: Set[String],
  ) extends Task {

    def utility(table: LocalTable): Double = {
      val mentions = table.column(entityCol)
      require(mentions.length == truth.length, "truth/row mismatch")
      val contextCols = table.columnNames.filterNot(c => c == entityCol || excluded.contains(c)).map(table.column)
      var correct = 0
      mentions.indices.foreach { i =>
        val linked: Option[String] = mentions(i).flatMap { m =>
          kb.get(m).flatMap { entries =>
            if (entries.size == 1) Some(entries.head._1)
            else {
              // Try any augmented column as the disambiguating context.
              val byContext = contextCols.iterator.flatMap { col =>
                col(i).flatMap(v => entries.filter(_._2 == v) match {
                  case Vector((e, _)) => Some(e)
                  case _ => None
                })
              }
              byContext.nextOption()
            }
          }
        }
        if (linked.contains(truth(i))) correct += 1
      }
      if (truth.isEmpty) 0.0 else correct.toDouble / truth.length
    }
  }

  /** Fairness-aware classification (paper §VI-A-4, German-credit style):
    * features strongly correlated with the sensitive attribute are
    * discarded (fair feature selection), a forest is trained on the rest,
    * and utility is validation F1 — so unfair-but-predictive augmentations
    * do not help, only fair ones do.
    */
  final case class FairClassificationTask(
      name: String,
      targetCol: String,
      sensitiveCol: String,
      excluded: Set[String],
      maxSensitiveCorr: Double = 0.45,
      validFrac: Double = 0.35,
      seed: Long = 31,
  ) extends Task {

    def utility(table: LocalTable): Double = {
      val y = table.numeric(targetCol).map(_.getOrElse(0.0))
      val sensitive = table.numeric(sensitiveCol)
      val feats = featureColumns(table, excluded + targetCol + sensitiveCol).filter { c =>
        math.abs(Stats.pearson(table.numeric(c), sensitive)) <= maxSensitiveCorr
      }
      if (feats.isEmpty) return 0.0
      val (pred, actual) = validationPredictions(table, feats, y, validFrac, seed)
      Stats.clamp01(Stats.f1(pred, actual))
    }
  }

  /** Clustering (paper §VI-A-4, satiety-score products): k-center cluster
    * the rows on the single best available numeric column (normalised to
    * [0,1]) and return 1 − (largest cluster radius) — the paper's
    * "additive inverse of the largest cluster radius". Augmenting a column
    * aligned with the true grouping shrinks the radius.
    */
  final case class ClusteringTask(
      name: String,
      nClusters: Int,
      excluded: Set[String],
  ) extends Task {
    require(nClusters >= 1, "need at least one cluster")

    def utility(table: LocalTable): Double = {
      val feats = featureColumns(table, excluded)
      if (feats.isEmpty) return 0.0
      val radii = feats.map { c =>
        val vals = table.numeric(c).flatten
        if (vals.length < nClusters) 1.0
        else {
          val lo = vals.min; val hi = vals.max
          val norm = if (hi - lo < 1e-12) vals.map(_ => 0.0) else vals.map(v => (v - lo) / (hi - lo))
          kCenterMaxRadius(norm, nClusters)
        }
      }
      Stats.clamp01(1.0 - radii.min)
    }

    /** Greedy 2-approximation k-center (Gonzalez) in 1-D. */
    private def kCenterMaxRadius(xs: Array[Double], k: Int): Double = {
      var centers = Vector(xs.head)
      while (centers.length < k) {
        val far = xs.maxBy(x => centers.map(c => math.abs(x - c)).min)
        centers = centers :+ far
      }
      xs.map(x => centers.map(c => math.abs(x - c)).min).max
    }
  }
}
