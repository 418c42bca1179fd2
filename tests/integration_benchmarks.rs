//! The benchmark suite as a whole: every program runs, the rule-based
//! baseline preserves behaviour on all of them, and the Table 1 scale
//! expectations hold.

use bpf_interp::{run, InputGenerator};
use k2_baseline::{best_baseline, optimize, OptLevel};

#[test]
fn baseline_preserves_behaviour_on_every_benchmark() {
    for bench in bpf_bench_suite::all() {
        let (_, best) = best_baseline(&bench.prog);
        let o1 = optimize(&bench.prog, OptLevel::O1);
        let mut generator = InputGenerator::new(1000 + bench.row as u64);
        for input in generator.generate_suite(&bench.prog, 8) {
            let reference =
                run(&bench.prog, &input).unwrap_or_else(|e| panic!("{} trapped: {e}", bench.name));
            for (label, variant) in [("-O1", &o1), ("best", &best)] {
                let out = run(variant, &input)
                    .unwrap_or_else(|e| panic!("{} {label} trapped: {e}", bench.name));
                assert_eq!(
                    reference.output, out.output,
                    "{} {label} changed behaviour",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn baseline_never_grows_programs() {
    for bench in bpf_bench_suite::all() {
        let (_, best) = best_baseline(&bench.prog);
        assert!(
            best.real_len() <= bench.prog.real_len(),
            "{} grew",
            bench.name
        );
    }
}

#[test]
fn suite_covers_the_papers_size_range() {
    let benches = bpf_bench_suite::all();
    let sizes: Vec<usize> = benches.iter().map(|b| b.prog.real_len()).collect();
    let min = *sizes.iter().min().unwrap();
    let max = *sizes.iter().max().unwrap();
    // Table 1 spans ~18-instruction tracepoint handlers up to the large
    // load balancer.
    assert!(
        (15..=40).contains(&min),
        "smallest benchmark out of range: {min}"
    );
    assert!(max >= 100, "largest benchmark too small: {max}");
    // The throughput subset is made of XDP programs only.
    for bench in bpf_bench_suite::throughput_subset() {
        assert_eq!(bench.prog.prog_type, bpf_isa::ProgramType::Xdp);
    }
}

#[test]
fn benchmarks_store_results_in_their_maps() {
    // Counter-style benchmarks must be observably stateful: on some input the
    // final map contents differ from the initial ones.
    for name in [
        "xdp_pktcntr",
        "xdp_exception",
        "xdp_devmap_xmit",
        "xdp1_kern/xdp1",
    ] {
        let bench = bpf_bench_suite::by_name(name).unwrap();
        let mut generator = InputGenerator::new(5);
        let touched = generator
            .generate_suite(&bench.prog, 12)
            .iter()
            .any(|input| {
                run(&bench.prog, input)
                    .map(|r| r.output.maps != input.maps)
                    .unwrap_or(false)
            });
        assert!(touched, "{name} never updated its maps");
    }
}

/// FNV-1a over the wire encoding: a fingerprint that is stable across
/// toolchains (unlike `DefaultHasher`).
fn wire_fingerprint(prog: &bpf_isa::Program) -> u64 {
    bpf_isa::wire::encode_bytes(&prog.insns)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn best_baseline_is_pinned_for_every_suite_program() {
    // `best_baseline` is K2's input in every table binary and in the
    // repository benchmark, so any change to it moves every trajectory.
    // Pinned: (name, real_len, fingerprint of the instructions).
    const PINNED: &[(&str, usize, u64)] = &[
        ("xdp_exception", 17, 0x34a1a85a2bc3f00c),
        ("xdp_redirect_err", 17, 0x81433b86b716b690),
        ("xdp_devmap_xmit", 36, 0x4d523589e534a37a),
        ("xdp_cpumap_kthread", 17, 0x2fc4b90913460475),
        ("xdp_cpumap_enqueue", 24, 0x30896543d928b067),
        ("sys_enter_open", 17, 0x9d094a71a054ba2d),
        ("socket/0", 23, 0x4d7afa2f8c445b12),
        ("socket/1", 26, 0x0d34974e277249d9),
        ("xdp_router_ipv4", 51, 0xd5c6eaeea5884553),
        ("xdp_redirect", 26, 0x3f3782fc7226ef85),
        ("xdp1_kern/xdp1", 34, 0x5722da07d30abd68),
        ("xdp2_kern/xdp1", 58, 0x3bcf4486ae43e662),
        ("xdp_fwd", 66, 0x8ceb3169ebb35cb7),
        ("xdp_pktcntr", 17, 0x8212e805add8fe6f),
        ("xdp_fw", 38, 0xfdbb6c712de2acb4),
        ("xdp_map_access", 23, 0xbd23c702052c9032),
        ("from-network", 26, 0x40132e3897a6cd94),
        ("recvmsg4", 42, 0xda5f9c47776b3e73),
        ("xdp-balancer", 102, 0x71c333c508f5e217),
    ];
    let actual: Vec<(&str, usize, u64)> = bpf_bench_suite::all()
        .iter()
        .map(|bench| {
            let (_, best) = best_baseline(&bench.prog);
            (bench.name, best.real_len(), wire_fingerprint(&best))
        })
        .collect();
    assert_eq!(actual, PINNED);
}
