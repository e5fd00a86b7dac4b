package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so that a
  * test's listener has seen all jobs run so far. The bus is private to
  * Spark's package, hence this bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
