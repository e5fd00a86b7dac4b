package org.apache.spark

/** Waits until the listener bus has delivered every queued event. The bus is
  * private to Spark's package, hence this one-line bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
