//! The three workloads, their seeded inputs and request schedules.

use std::collections::HashMap;

use gs_datagen::apps::{fraud_graph, FraudWorkload};
use gs_graph::Value;

use crate::stats::{zipf_cdf, Digest, Rng};

/// What a workload runs and how it splits its time.
pub struct Spec {
    pub name: &'static str,
    /// `fraud_graph(accounts, items, orders, ..)` sizes.
    pub accounts: usize,
    pub items: usize,
    pub orders: usize,
    /// Zipf(1.1) account draws when true, uniform otherwise.
    pub zipf: bool,
    /// Durable GART (WAL, fsync per commit) with reads interleaved
    /// between commits; in-memory and read-only serving otherwise.
    pub durable: bool,
    /// `setup_s` samples, spread over the timed part. Each times
    /// `setup_batch` fresh store loads, so that a sample lasts well over a
    /// millisecond.
    pub setup_reps: usize,
    pub setup_batch: usize,
    /// Operations run before timing so caches and lazy set-up settle.
    pub warm_ops: u64,
    /// The timed part alternates `slice_ms` of serving with
    /// `rounds_per_slice` analytics rounds until `--seconds` have passed,
    /// so that a stretch of host noise falls on every metric alike.
    pub slice_ms: u64,
    pub rounds_per_slice: usize,
    /// Fixed operation, commit and round counts of the traced replay; the
    /// commits follow the serving of a read-only workload.
    pub trace_ops: u64,
    pub trace_commits: u64,
    pub trace_rounds: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "serve_hot",
        accounts: 200,
        items: 80,
        orders: 800,
        zipf: true,
        durable: false,
        setup_reps: 25,
        setup_batch: 30,
        warm_ops: 5_000,
        slice_ms: 500,
        rounds_per_slice: 10,
        trace_ops: 6_000,
        trace_commits: 500,
        trace_rounds: 3,
    },
    Spec {
        name: "serve_cold",
        accounts: 20_000,
        items: 8_000,
        orders: 80_000,
        zipf: false,
        durable: false,
        setup_reps: 7,
        setup_batch: 1,
        warm_ops: 300,
        slice_ms: 1_200,
        rounds_per_slice: 2,
        trace_ops: 1_000,
        trace_commits: 500,
        trace_rounds: 2,
    },
    Spec {
        name: "ingest",
        accounts: 2_000,
        items: 800,
        orders: 8_000,
        zipf: true,
        durable: true,
        setup_reps: 15,
        setup_batch: 1,
        warm_ops: 300,
        slice_ms: 800,
        rounds_per_slice: 3,
        trace_ops: 6_000,
        trace_commits: 0,
        trace_rounds: 3,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A checkpoint is attempted after this many commits on the durable
/// store.
pub const CHECKPOINT_EVERY: u64 = 1_000;

/// The templates of the §8 mix: point reads, one-hop degree counts and
/// fraud checks.
pub const POINT: usize = 0;
pub const HOP: usize = 1;
pub const FRAUD: usize = 2;

/// The statement texts of `gs-bench storm`; `fraud` takes `$SEEDS`.
pub fn template_text(template: usize, account: u64) -> String {
    match template {
        POINT => format!("MATCH (v:Account {{id: {account}}}) RETURN v"),
        HOP => format!(
            "MATCH (v:Account {{id: {account}}})-[:KNOWS]-(f:Account) \
             RETURN v, COUNT(f) AS deg"
        ),
        _ => format!(
            "MATCH (v:Account {{id: {account}}})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Account) \
             WHERE s.id IN $SEEDS AND b1.date - b2.date < 5 AND b2.date - b1.date < 5 \
             WITH v, COUNT(s) AS cnt1 \
             MATCH (v)-[:KNOWS]-(f:Account), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(s2:Account) \
             WHERE s2.id IN $SEEDS \
             WITH v, cnt1, COUNT(s2) AS cnt2 \
             WHERE 2 * cnt1 + 1 * cnt2 > 3 \
             RETURN v"
        ),
    }
}

/// Everything a run derives from `--seed`.
pub struct Inputs {
    pub graph: FraudWorkload,
    /// `$SEEDS` for the fraud template; empty for the others.
    pub fraud_params: HashMap<String, Value>,
    pub no_params: HashMap<String, Value>,
    /// KNOWS degree per account, from the generated edge list. KNOWS is
    /// generated in both directions and an undirected pattern expands out
    /// edges, so the degree is the number of edges leaving the account.
    pub knows_degree: Vec<u64>,
    seed: u64,
    cdf: Option<Vec<f64>>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        // a run that uses up the stream starts over from its first order
        let stream = if spec.durable {
            40_000
        } else {
            spec.trace_commits as usize
        };
        let graph = fraud_graph(spec.accounts, spec.items, spec.orders, stream, seed);
        let seeds = graph.seeds.iter().map(|&s| Value::Int(s as i64)).collect();
        let fraud_params = HashMap::from([("SEEDS".to_string(), Value::List(seeds))]);
        let mut knows_degree = vec![0u64; spec.accounts];
        for batch in &graph.data.edges {
            if batch.label == graph.labels.knows {
                for &(s, _) in &batch.endpoints {
                    knows_degree[s as usize] += 1;
                }
            }
        }
        Inputs {
            graph,
            fraud_params,
            no_params: HashMap::new(),
            knows_degree,
            seed,
            cdf: spec.zipf.then(|| zipf_cdf(spec.accounts)),
        }
    }

    pub fn params(&self, template: usize) -> &HashMap<String, Value> {
        if template == FRAUD {
            &self.fraud_params
        } else {
            &self.no_params
        }
    }

    /// An account drawn by the workload's distribution.
    pub fn account(&self, rng: &mut Rng) -> u64 {
        let n = self.graph.accounts;
        match &self.cdf {
            Some(cdf) => {
                let z = rng.unit();
                cdf.partition_point(|&c| c < z).min(n - 1) as u64
            }
            None => rng.below(n as u64),
        }
    }

    /// The read schedule: an endless seeded stream of `(template,
    /// account)` in the 60/30/10 mix.
    pub fn reads(&self) -> Reads<'_> {
        Reads {
            inputs: self,
            rng: Rng::new(self.seed, 1),
        }
    }

    /// Reads between two commits of the ingest loop: point or hop, 2:1.
    pub fn ingest_reads(&self) -> Reads<'_> {
        Reads {
            inputs: self,
            rng: Rng::new(self.seed, 2),
        }
    }

    /// The fixed seeded batch of BFS sources, as account external ids.
    pub fn bfs_sources(&self) -> Vec<u64> {
        let mut rng = Rng::new(self.seed, 3);
        (0..16)
            .map(|_| rng.below(self.graph.accounts as u64))
            .collect()
    }

    /// Whether a fraud request's result is checked against a cache-free
    /// reference execution (a seeded one-in-`every` sample).
    pub fn sampled(&self, request: u64, every: u64) -> bool {
        crate::stats::mix64(self.seed ^ request.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .is_multiple_of(every)
    }

    /// Digest of everything the schedule decides: the first reads of both
    /// streams, the ingest orders and the BFS sources.
    pub fn schedule_digest(&self) -> u64 {
        let mut d = Digest::new();
        let mut reads = self.reads();
        let mut ingest = self.ingest_reads();
        for _ in 0..4096 {
            let (t, a) = reads.next_mixed();
            d.eat(t as u64);
            d.eat(a);
            let (t, a) = ingest.next_point_or_hop();
            d.eat(t as u64);
            d.eat(a);
        }
        for &(a, i, date) in &self.graph.order_stream {
            d.eat(a);
            d.eat(i);
            d.eat(date as u64);
        }
        for s in self.bfs_sources() {
            d.eat(s);
        }
        d.value()
    }
}

pub struct Reads<'a> {
    inputs: &'a Inputs,
    rng: Rng,
}

impl Reads<'_> {
    pub fn next_mixed(&mut self) -> (usize, u64) {
        let mix = self.rng.unit();
        let template = if mix < 0.6 {
            POINT
        } else if mix < 0.9 {
            HOP
        } else {
            FRAUD
        };
        (template, self.inputs.account(&mut self.rng))
    }

    pub fn next_point_or_hop(&mut self) -> (usize, u64) {
        let template = if self.rng.below(3) < 2 { POINT } else { HOP };
        (template, self.inputs.account(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_hot_has_600_distinct_statements() {
        let spec = spec("serve_hot").unwrap();
        let inputs = Inputs::generate(spec, 3);
        let mut reads = inputs.reads();
        let texts: std::collections::HashSet<String> = (0..200_000)
            .map(|_| {
                let (t, a) = reads.next_mixed();
                template_text(t, a)
            })
            .collect();
        assert_eq!(texts.len(), 600);
    }
}
