package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the job entrypoints: uses the master provided
  * by spark-submit when present, and falls back to `local[*]` so the jobs
  * also run under plain `sbt runMain`.
  */
object JobSession {
  def get(name: String): SparkSession = {
    val builder = SparkSession.builder().appName(name)
    if (!sys.props.contains("spark.master")) builder.master("local[*]")
    builder.getOrCreate()
  }
}
