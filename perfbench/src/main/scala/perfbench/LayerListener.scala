package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Spark work done under one job group. */
final class Work {
  var jobs          = 0
  var tasks         = 0L
  var executorMs    = 0L
  var shuffleWrite  = 0L
  var shuffleRead   = 0L
  var spill         = 0L

  def executorS: Double = executorMs / 1000.0
}

/** Attributes Spark jobs, tasks, executor time, shuffle and spill to the
  * job group that was active on the calling thread when each job started.
  * `layer` runs one layer call under a fresh group and returns its work.
  *
  * Listener events arrive asynchronously, so `layer` ends with a tiny
  * fence job and waits until the listener has seen it finish: events are
  * delivered in order, so by then every earlier task has been counted.
  */
final class LayerListener(spark: SparkSession) extends SparkListener {
  private val GroupKey    = "spark.jobGroup.id"
  private val byGroup     = mutable.HashMap.empty[String, Work]
  private val stageGroup  = mutable.HashMap.empty[Int, String]
  private val jobGroup    = mutable.HashMap.empty[Int, String]
  @volatile private var lastFence = ""
  private var seq = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(GroupKey))).foreach { g =>
      jobGroup(e.jobId) = g
      byGroup.getOrElseUpdate(g, new Work).jobs += 1
      e.stageIds.foreach(stageGroup(_) = g)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val w = byGroup.getOrElseUpdate(g, new Work)
      w.tasks += 1
      w.executorMs += m.executorRunTime
      w.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      w.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      w.spill += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val g = synchronized(jobGroup.remove(e.jobId))
    g.filter(_.startsWith("fence:")).foreach(lastFence = _)
  }

  /** Run `f` under its own job group; return (result, wall seconds, work). */
  def layer[A](name: String)(f: => A): (A, Double, Work) = {
    val sc = spark.sparkContext
    seq += 1
    val group = s"$name:$seq"
    sc.setJobGroup(group, name)
    val (r, t) =
      try Harness.time(f)
      finally sc.clearJobGroup()
    fence()
    (r, t, synchronized(byGroup.remove(group)).getOrElse(new Work))
  }

  private def fence(): Unit = {
    val sc = spark.sparkContext
    val id = s"fence:$seq"
    sc.setJobGroup(id, "fence")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30e9.toLong
    while (lastFence != id && System.nanoTime() < deadline) Thread.sleep(2)
    Harness.check(lastFence == id, "listener events did not arrive")
    synchronized(byGroup.remove(id))
  }
}
