package org.apache.spark

/** Blocks until Spark's listener bus has delivered every queued event, so
  * counts kept by a listener are complete when they are read. The bus is
  * `private[spark]`, which is why this one-liner lives in Spark's package.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
