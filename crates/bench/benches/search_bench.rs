//! Criterion micro-benchmark of the stochastic search: iterations per second
//! of the Markov chain on a small benchmark (the paper's Table 1 budgets are
//! hundreds of thousands to millions of iterations).

use bpf_bench_suite::by_name;
use criterion::{criterion_group, criterion_main, Criterion};
use k2_core::{CompilerOptions, CostFunction, CostSettings, MarkovChain, ProposalGenerator};
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    let bench = by_name("xdp_pktcntr").expect("benchmark exists");
    let options = CompilerOptions {
        num_tests: 8,
        ..CompilerOptions::default()
    };

    group.bench_function("markov_chain_200_iterations", |b| {
        b.iter(|| {
            let cost = CostFunction::new(&bench.prog, &options, CostSettings::default(), 1);
            let generator = ProposalGenerator::new(
                &bench.prog,
                k2_core::proposals::RuleProbabilities::default(),
                1,
            );
            let mut chain = MarkovChain::new(cost, generator, 1);
            black_box(chain.run(200))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
