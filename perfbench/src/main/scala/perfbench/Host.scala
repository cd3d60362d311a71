package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Host and JVM facts that let a noisy run be recognised afterwards. */
object Host {

  /** CPU time counters from the aggregate `cpu` line of /proc/stat (jiffies). */
  final case class CpuTimes(total: Long, steal: Long)

  def cpuTimes(): Option[CpuTimes] = Try {
    val line = Files.readAllLines(Paths.get("/proc/stat")).asScala.find(_.startsWith("cpu ")).get
    val f = line.trim.split("\\s+").drop(1).map(_.toLong)
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    CpuTimes(f.take(8).sum, if (f.length > 7) f(7) else 0L)
  }.toOption

  /** Share of CPU time stolen by the hypervisor between two readings. */
  def stealFrac(a: Option[CpuTimes], b: Option[CpuTimes]): Double = (a, b) match {
    case (Some(x), Some(y)) if y.total > x.total => (y.steal - x.steal).toDouble / (y.total - x.total)
    case _ => 0.0
  }

  /** One-minute load average. */
  def loadAvg(): Double =
    Try(Files.readString(Paths.get("/proc/loadavg")).trim.split("\\s+")(0).toDouble).getOrElse(0.0)

  /** Milliseconds spent in garbage collection so far, all collectors. */
  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Seconds since the JVM started. */
  def uptimeSec(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0

  /** Static facts about the machine and the JVM. */
  def describe(sparkMaster: String): Vector[(String, String)] = {
    val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage
    Vector(
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "heap" -> f"init=${heap.getInit / 1048576.0}%.0fMB max=${heap.getMax / 1048576.0}%.0fMB",
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
      "spark" -> sparkMaster)
  }
}
