//! Workload plans: which programs are compiled, with which goal, budget and
//! search seed, by which client. A plan is a pure function of the workload,
//! the workload seed and the run length, so the same seed always gives the
//! same requests.

use k2_api::OptimizationGoal;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-program SAT proofs dominate: mid-size programs with maps.
    SolverBound,
    /// Test execution dominates: long chains on the socket filters.
    SearchBound,
    /// Many short requests from two clients.
    ServiceMix,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "solver_bound" => Some(Workload::SolverBound),
            "search_bound" => Some(Workload::SearchBound),
            "service_mix" => Some(Workload::ServiceMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolverBound => "solver_bound",
            Workload::SearchBound => "search_bound",
            Workload::ServiceMix => "service_mix",
        }
    }
}

/// Programs whose chains block on full-program SAT proofs, with the
/// iterations per chain each gets.
const SOLVER_BOUND: [(&str, u64); 5] = [
    ("xdp_devmap_xmit", 8),
    ("xdp_cpumap_enqueue", 8),
    ("from-network", 8),
    ("xdp_map_access", 8),
    ("xdp_redirect", 8),
];

/// The per-query tail of `solver_bound`, compiled once per run: its
/// set-up proof alone takes ~0.6 s per chain and single queries take
/// seconds, so a short chain is enough.
const SOLVER_TAIL: (&str, u64) = ("xdp_router_ipv4", 1);

/// Programs whose long chains spend their time executing tests.
const SEARCH_BOUND: [(&str, u64); 2] = [("socket/0", 3000), ("socket/1", 3000)];

/// The default set (programs of at most 60 instructions) without
/// `xdp_router_ipv4` and `recvmsg4`, whose 15-18 s compiles would make up
/// the whole run.
const SERVICE_MIX: [&str; 15] = [
    "xdp_exception",
    "xdp_redirect_err",
    "xdp_devmap_xmit",
    "xdp_cpumap_kthread",
    "xdp_cpumap_enqueue",
    "sys_enter_open",
    "socket/0",
    "socket/1",
    "xdp_redirect",
    "xdp1_kern/xdp1",
    "xdp2_kern/xdp1",
    "xdp_pktcntr",
    "xdp_fw",
    "xdp_map_access",
    "from-network",
];

/// Iterations per chain of a `service_mix` request.
const SERVICE_ITERATIONS: u64 = 10;

/// Minimum number of `service_mix` requests.
const SERVICE_MIN_REQUESTS: usize = 100;

/// Nominal seconds one round of each workload takes on a 2-CPU x86-64 box
/// (after `solver_bound`'s tail request, ~4 s); a run makes as many rounds
/// as fit its length, at least one.
fn nominal_round_s(workload: Workload) -> f64 {
    match workload {
        Workload::SolverBound => 0.9,
        Workload::SearchBound => 2.6,
        Workload::ServiceMix => 1.25,
    }
}

/// The goals alternate so both of the paper's cost functions are measured.
const GOALS: [OptimizationGoal; 2] = [
    OptimizationGoal::InstructionCount,
    OptimizationGoal::Latency,
];

/// One compilation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request id, echoed in the response.
    pub id: String,
    /// Benchmark-suite program name.
    pub program: &'static str,
    /// Optimization goal.
    pub goal: OptimizationGoal,
    /// Iterations per chain.
    pub iterations: u64,
    /// Search seed.
    pub seed: u64,
}

/// A workload's requests and how they are served.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests in issue order; clients take the next one when idle.
    pub requests: Vec<Request>,
}

/// SplitMix64: a stateless mixer for deriving seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build the plan for a workload seed and run length.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let budget_s = match workload {
        Workload::SolverBound => seconds as f64 - 4.0,
        _ => seconds as f64,
    };
    let rounds = ((budget_s / nominal_round_s(workload)).round() as usize).max(1);
    let mut state = mix(seed ^ mix(workload as u64 + 1));
    // Search seeds stay below 2^63: `OptimizeRequest::to_json` writes
    // integers as JSON i64, so a larger seed does not survive the v:1
    // request round trip.
    let mut next_seed = || {
        state = mix(state);
        state >> 1
    };
    let mut requests = Vec::new();
    let mut push = |program: &'static str, goal, iterations, seed| {
        let id = format!("{}-{}", requests.len(), program);
        requests.push(Request {
            id,
            program,
            goal,
            iterations,
            seed,
        });
    };
    match workload {
        Workload::SolverBound | Workload::SearchBound => {
            let programs: &[(&str, u64)] = if workload == Workload::SolverBound {
                let (program, iterations) = SOLVER_TAIL;
                push(program, GOALS[0], iterations, next_seed());
                &SOLVER_BOUND
            } else {
                &SEARCH_BOUND
            };
            for round in 0..rounds {
                for (i, &(program, iterations)) in programs.iter().enumerate() {
                    push(program, GOALS[(round + i) % 2], iterations, next_seed());
                }
            }
        }
        Workload::ServiceMix => {
            // Every program appears equally often, the goals alternate,
            // and the seed shuffles the order.
            let rounds = rounds.max(SERVICE_MIN_REQUESTS.div_ceil(SERVICE_MIX.len()));
            let mut mix_requests = Vec::with_capacity(rounds * SERVICE_MIX.len());
            for round in 0..rounds {
                for (i, program) in SERVICE_MIX.into_iter().enumerate() {
                    mix_requests.push((program, GOALS[(round + i) % 2]));
                }
            }
            // Fisher-Yates with the derived stream.
            for i in (1..mix_requests.len()).rev() {
                let j = (next_seed() % (i as u64 + 1)) as usize;
                mix_requests.swap(i, j);
            }
            for (program, goal) in mix_requests {
                push(program, goal, SERVICE_ITERATIONS, next_seed());
            }
        }
    }
    Plan {
        workload,
        clients: if workload == Workload::ServiceMix {
            2
        } else {
            1
        },
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        for workload in [
            Workload::SolverBound,
            Workload::SearchBound,
            Workload::ServiceMix,
        ] {
            let a = build(workload, 7, 20);
            assert_eq!(a.requests, build(workload, 7, 20).requests);
            assert_ne!(a.requests, build(workload, 8, 20).requests);
            assert!(Workload::parse(workload.name()) == Some(workload));
        }
    }

    #[test]
    fn service_mix_is_balanced_and_large_enough() {
        let plan = build(Workload::ServiceMix, 3, 1);
        assert!(plan.requests.len() >= SERVICE_MIN_REQUESTS);
        assert_eq!(plan.clients, 2);
        let per_program = plan.requests.len() / SERVICE_MIX.len();
        for program in SERVICE_MIX {
            let of = |goal| {
                plan.requests
                    .iter()
                    .filter(|r| r.program == program && r.goal == goal)
                    .count()
            };
            let (insns, latency) = (of(GOALS[0]), of(GOALS[1]));
            assert_eq!(insns + latency, per_program);
            assert!(
                insns.abs_diff(latency) <= 1,
                "{program}: {insns} vs {latency}"
            );
        }
    }

    #[test]
    fn every_planned_program_exists() {
        for workload in [
            Workload::SolverBound,
            Workload::SearchBound,
            Workload::ServiceMix,
        ] {
            for request in build(workload, 1, 30).requests {
                assert!(bpf_bench_suite::by_name(request.program).is_some());
            }
        }
    }
}
