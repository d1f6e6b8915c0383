//! The benchmark's workloads: how each scenario is built from the seed,
//! and the outputs each seed must produce.

use sde_bench::demo_checker;
use sde_core::{Algorithm, Checker, Scenario};
use sde_net::{FailureConfig, FaultPlan, NodeId, Topology};
use sde_os::apps::collect::{self, CollectConfig};
use sde_os::apps::sense::{self, SenseConfig};
use sde_os::apps::token::{self, TokenConfig};
use sde_os::layout;
use sde_symbolic::{Expr, Width};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table I collect scenario on a 6×6 grid under SDS with
    /// dedup, then test generation.
    CollectSds6x6,
    /// The solver-bound sense scenario on a 4×4 grid under COW, then
    /// test generation.
    SenseCow4x4,
    /// The seeded token bug on a 12-node line under SDS with symbolic
    /// latency and crash-recovery, then check, minimize and replay.
    TokenLine12,
}

/// The side of the collect grid. At 7×7, the largest the paper's Table I
/// scenario runs in seconds, one test generation takes 12–15 s and
/// 1.8 GiB, so a run holds two or three of them and its medians spread
/// too much between runs; 6×6 keeps every layer busy at a tenth of that.
pub const COLLECT_SIDE: u16 = 6;

/// The case limit passed to `testgen::generate`.
pub const TESTGEN_LIMIT: usize = 64;

/// The outputs one seed of a workload must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// FNV-1a of `RunReport::equivalence_key()` after exploration.
    pub key_hash: u64,
    /// Test generation: `(dscenarios_seen, cases, unsolvable)`.
    pub testgen: (usize, usize, usize),
    /// The repro pipeline.
    pub repro: ReproExpected,
}

/// A violation digest; prints in hex.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// Expected outputs of the repro pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReproExpected {
    /// Violations `Checker::check` reports.
    pub violations: usize,
    /// The smallest `Violation::digest()` among them, when there is one:
    /// the violation the pipeline minimizes.
    pub first_digest: Option<Digest>,
    /// `Violation::digest()` of the minimized violation; the strict
    /// replay of the minimal witness must report it too.
    pub minimal_digest: Option<Digest>,
    /// `MinimizeReport::final_size()` (0 without a violation).
    pub final_size: usize,
    /// `MinimizeReport::shrink_steps`: candidate replays tried.
    pub probes: u64,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::CollectSds6x6,
        Workload::SenseCow4x4,
        Workload::TokenLine12,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectSds6x6 => "collect-sds-6x6",
            Workload::SenseCow4x4 => "sense-cow-4x4",
            Workload::TokenLine12 => "token-line-12",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The state mapping algorithm.
    pub fn algorithm(self) -> Algorithm {
        match self {
            Workload::SenseCow4x4 => Algorithm::Cow,
            Workload::CollectSds6x6 | Workload::TokenLine12 => Algorithm::Sds,
        }
    }

    /// Whether online dedup is on.
    pub fn dedup(self) -> bool {
        self == Workload::CollectSds6x6
    }

    /// The invariants the repro pipeline checks on `seed`'s scenario.
    /// Token checks its seeded bug, `unique-token-owner`, across nodes.
    /// Collect and sense check that the sink never accepts more packets
    /// than the source sends, which holds: node-locally, on each sink
    /// state, because the cross-node form enumerates every dscenario
    /// again (261,760 on collect) after test generation already has.
    pub fn checker(self, seed: u64) -> Checker {
        let variant = seed % self.variants();
        match self {
            Workload::CollectSds6x6 => {
                let (_, sink) = diagonal_corners(COLLECT_SIDE, variant);
                sink_bound_checker(
                    sink,
                    CollectConfig::paper_grid(COLLECT_SIDE, COLLECT_SIDE).packet_count,
                )
            }
            Workload::SenseCow4x4 => {
                sink_bound_checker(NodeId(0), SenseConfig::paper_grid(4, 4).packet_count)
            }
            Workload::TokenLine12 => demo_checker("token"),
        }
    }

    /// How many distinct inputs the seeds select from: a seed picks
    /// variant `seed % variants()`.
    pub fn variants(self) -> u64 {
        match self {
            Workload::CollectSds6x6 | Workload::SenseCow4x4 => 4,
            Workload::TokenLine12 => 2,
        }
    }

    /// The scenario of `seed`. Variant 0 is the input the docs describe.
    /// The others do the same amount of work on other inputs: collect
    /// runs between another pair of diagonal corners, token passes the
    /// token the other way, and sense samples at another interval
    /// (its corner pairs would not do: the classification arithmetic
    /// depends on node ids, so each pair costs the solver differently).
    pub fn scenario(self, seed: u64) -> Scenario {
        let variant = seed % self.variants();
        match self {
            Workload::CollectSds6x6 => {
                let (source, sink) = diagonal_corners(COLLECT_SIDE, variant);
                collect_grid(COLLECT_SIDE, source, sink)
            }
            Workload::SenseCow4x4 => sense_grid(4, 1000 + 100 * variant),
            Workload::TokenLine12 => token_line(12, variant == 1),
        }
    }

    /// The outputs `seed` must produce.
    pub fn expected(self, seed: u64) -> Expected {
        let table: &[Expected] = match self {
            Workload::CollectSds6x6 => &COLLECT_EXPECTED,
            Workload::SenseCow4x4 => &SENSE_EXPECTED,
            Workload::TokenLine12 => &TOKEN_EXPECTED,
        };
        table[(seed % self.variants()) as usize]
    }
}

/// The source and sink of diagonal corner pair `variant` (0..4) of a
/// `side × side` grid: variant 0 is the paper's last-node-to-node-0.
pub fn diagonal_corners(side: u16, variant: u64) -> (NodeId, NodeId) {
    let last = side * side - 1;
    let (source, sink) = match variant % 4 {
        0 => (last, 0),
        1 => (0, last),
        2 => (side - 1, last + 1 - side),
        _ => (last + 1 - side, side - 1),
    };
    (NodeId(source), NodeId(sink))
}

/// The paper's §IV-A collect scenario between `source` and `sink`: ten
/// packets one second apart, one symbolic drop at every route node and
/// route neighbour. With the paper's corners it is
/// `sde_bench::paper_scenario(side)`.
pub fn collect_grid(side: u16, source: NodeId, sink: NodeId) -> Scenario {
    let topology = Topology::grid(side, side);
    let cfg = CollectConfig {
        source,
        sink,
        ..CollectConfig::paper_grid(side, side)
    };
    let failures = FailureConfig::new().drops_on_route_and_neighbors(&topology, source, sink, 1);
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(10_000)
}

/// The sense scenario on a `side × side` grid, corner to corner,
/// sampling every `interval_ms`: symbolic readings classified at every
/// hop, no failures. With a 1000 ms interval it is
/// `sde_bench::symbolic_grid(side)`.
pub fn sense_grid(side: u16, interval_ms: u64) -> Scenario {
    let topology = Topology::grid(side, side);
    let cfg = SenseConfig {
        interval_ms,
        ..SenseConfig::paper_grid(side, side)
    };
    let duration = cfg.interval_ms * (u64::from(cfg.packet_count) + 2);
    let programs = sense::programs(&topology, &cfg);
    Scenario::new(topology, programs).with_duration_ms(duration)
}

/// Checks on every state of `sink` that it accepted at most `packets`
/// packets, the number the source sends.
pub fn sink_bound_checker(sink: NodeId, packets: u16) -> Checker {
    Checker::new().node_local("sink-within-sent", move |view| {
        (view.node == sink).then(|| {
            Expr::ugt(
                view.memory_u16(layout::RECEIVED),
                Expr::const_(u64::from(packets), Width::W16),
            )
        })
    })
}

/// The seeded token bug on a `len`-node line, route `0 → len-1` (or
/// back when `reversed`), 2,800 virtual ms. Every node may take one
/// symbolic extra latency of three link latencies and one crash with
/// recovery that keeps the persistent window.
pub fn token_line(len: u16, reversed: bool) -> Scenario {
    let topology = Topology::line(len);
    let mut route: Vec<NodeId> = topology.nodes().collect();
    if reversed {
        route.reverse();
    }
    let nodes = route.clone();
    let cfg = TokenConfig {
        route,
        ..TokenConfig::default()
    };
    let programs = token::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs).with_duration_ms(2_800);
    let faults = FaultPlan::new()
        .with_latency(nodes.clone(), scenario.link_latency_ms * 3, 1)
        .with_crash_recovery(nodes, 1, layout::PERSIST_BASE, layout::PERSIST_SIZE);
    scenario.with_faults(faults)
}

/// A workload whose invariants hold: nothing to minimize.
const HOLDS: ReproExpected = ReproExpected {
    violations: 0,
    first_digest: None,
    minimal_digest: None,
    final_size: 0,
    probes: 0,
};

/// Collect explores 9,821 states in 48,588 events and test generation
/// sees 261,760 dscenarios, on every variant.
const COLLECT_EXPECTED: [Expected; 4] = [
    collect_expected(0xf012_0170_ccd5_9c49),
    collect_expected(0x4b8c_b2c3_e27f_f797),
    collect_expected(0x30cc_9846_c34c_6bb8),
    collect_expected(0x859f_8c3b_3b60_0101),
];

const fn collect_expected(key_hash: u64) -> Expected {
    Expected {
        key_hash,
        testgen: (261_760, 64, 0),
        repro: HOLDS,
    }
}

/// Sense explores 19,456 states in 9,786 events; 4,096 dscenarios of
/// which 49 are solvable, on every variant.
const SENSE_EXPECTED: [Expected; 4] = [
    sense_expected(0xa5ec_481a_9456_d86e),
    sense_expected(0xf3ff_fc0e_f470_71c5),
    sense_expected(0x4857_e97c_1a38_208c),
    sense_expected(0x67a4_5293_736f_bc87),
];

const fn sense_expected(key_hash: u64) -> Expected {
    Expected {
        key_hash,
        testgen: (4_096, 49, 4_047),
        repro: HOLDS,
    }
}

/// Token explores 12,299 states in 10,249 events, finds 4,096
/// violations and minimizes the smallest-digest one in 7 probes to the
/// same two-entry repro in both directions.
const TOKEN_EXPECTED: [Expected; 2] = [
    token_expected(0xe319_710c_608c_bbd8, 0x0002_2ea5_e08f_7a4c),
    token_expected(0x3741_dd2a_ac13_e1f5, 0x0011_4f53_6f50_5694),
];

const fn token_expected(key_hash: u64, first_digest: u64) -> Expected {
    Expected {
        key_hash,
        testgen: (24_562, 64, 0),
        repro: ReproExpected {
            violations: 4_096,
            first_digest: Some(Digest(first_digest)),
            minimal_digest: Some(Digest(0x2028_0bb2_f19c_c8b9)),
            final_size: 2,
            probes: 7,
        },
    }
}
