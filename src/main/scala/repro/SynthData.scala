package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Spark-native synthetic data for the dataflow layer's oracle tests,
  * deterministic in the seed so the DuckDB oracle sees identical input.
  */
object SynthData {

  /** Bipartite graph stream (t, s, d) with zipf-skewed users and uniform
    * items — edge duplicates arise naturally from the birthday effect.
    * Spark-native counterpart of `repro.data.GraphStream` for the dataflow
    * layer tests (user cardinalities are skewed but not calibrated to a
    * Table I profile).
    */
  def bipartiteEdges(spark: SparkSession, rows: Long, nUsers: Long, nItems: Long,
                     alpha: Double = 1.05, seed: Long = 6): DataFrame = {
    import spark.implicits._
    val norm = (1L to math.min(nUsers, 10000L)).map(k => 1.0 / math.pow(k.toDouble, alpha)).sum
    spark.range(rows).select(
      $"id" as "t",
      least(lit(nUsers),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "s",
      (rand(seed + 1) * nItems + 1).cast(LongType) as "d",
    )
  }
}
