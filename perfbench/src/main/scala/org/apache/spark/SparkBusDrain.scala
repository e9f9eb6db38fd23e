package org.apache.spark

/** Waits until Spark's listener bus has delivered every queued event, so
  * listener totals read after a job include all of its tasks. The bus is
  * package-private to Spark, hence this file's package.
  */
object SparkBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
