//! The analytic sharding model (paper §VI-A).
//!
//! "Sharding splits the network in K partitions, no longer forcing all
//! nodes in the network to process all incoming transactions. Every
//! shard k ∈ K, in its simplest form, has its own transaction history
//! … In a more complex scenario, cross shard communication is
//! available, meaning that … a transaction from k can trigger an event
//! in m."
//!
//! The model: each shard processes work at a fixed rate. A
//! single-shard transaction costs one work unit in its home shard; a
//! cross-shard transaction costs one unit in the source shard (debit +
//! outbound receipt) and then one unit in the destination shard
//! (credit), the standard two-phase scheme. Aggregate throughput
//! therefore scales with K but degrades with the cross-shard fraction
//! `f` as `K·C / (1 + f)`. Experiment `e13` prints this ceiling next
//! to the throughput it measures by running K shard simulations
//! (`dlt-bench::shardnet`).

/// Sharded-network parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardingParams {
    /// Number of shards (K).
    pub shards: usize,
    /// Work units (transaction phases) each shard processes per second.
    pub per_shard_rate: f64,
    /// Fraction of transactions whose recipient lives on another shard.
    pub cross_shard_fraction: f64,
}

impl ShardingParams {
    /// The analytic throughput ceiling: `K·C / (1 + f)` completed
    /// transactions per second (each cross-shard tx consumes two of
    /// the network's work units).
    pub fn theoretical_tps(&self) -> f64 {
        self.shards as f64 * self.per_shard_rate / (1.0 + self.cross_shard_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_tps_scales_with_k_and_pays_the_cross_shard_tax() {
        let tps = |shards, f| {
            ShardingParams {
                shards,
                per_shard_rate: 50.0,
                cross_shard_fraction: f,
            }
            .theoretical_tps()
        };
        assert_eq!(tps(1, 0.0), 50.0);
        assert_eq!(tps(16, 0.0), 800.0);
        // f = 1: every transaction costs two work units.
        assert_eq!(tps(8, 1.0), 200.0);
        assert!(tps(8, 0.3) < tps(8, 0.0));
    }
}
