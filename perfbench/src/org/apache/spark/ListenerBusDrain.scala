package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * task metrics that belong to finished jobs are counted before they are
  * read. The listener bus is internal to Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
