//! The cost model's cross-counter identities, checked exactly on base
//! runs. With the L2 off (the default), every simulated cycle is either
//! a retired micro-op or one of the model's named penalty and stall
//! components, so `cycles` must equal their sum to the cycle; a
//! refutation is a bug in the model, never noise. The runs cover every
//! suite analog at reduced scale and a batch of random programs, on the
//! fused and the unfused arena.

use pp::ir::HwEvent;
use pp::usim::{Machine, MachineConfig, NullSink, RunResult};
use pp::workloads::{random_program, RandomSpec};

/// The fused and unfused arenas on the default machine, and both again
/// on a 512 B I-cache, where I-cache misses are common and block entry
/// often takes the full line walk instead of the fetch memo.
fn arenas() -> Vec<MachineConfig> {
    [MachineConfig::default(), MachineConfig::tiny_cache()]
        .into_iter()
        .flat_map(|c| [c, MachineConfig { no_fuse: true, ..c }])
        .collect()
}

fn assert_identities(r: &RunResult, config: &MachineConfig, ctx: &str) {
    let g = |e| r.metrics.get(e);
    assert_eq!(
        g(HwEvent::Cycles),
        r.uops
            + g(HwEvent::DcReadMiss) * config.dcache_miss_penalty
            + g(HwEvent::IcMiss) * config.icache_miss_penalty
            + g(HwEvent::BranchMispredict) * config.mispredict_penalty
            + g(HwEvent::StoreBufStall)
            + g(HwEvent::FpStall),
        "cycles = uops + penalties + stalls: {ctx}"
    );
    assert_eq!(r.uops, g(HwEvent::Insts), "uops: {ctx}");
    assert_eq!(
        g(HwEvent::DcMiss),
        g(HwEvent::DcReadMiss) + g(HwEvent::DcWriteMiss),
        "dc_miss split: {ctx}"
    );
    assert_eq!(g(HwEvent::DcRead), g(HwEvent::Loads), "reads: {ctx}");
    assert_eq!(g(HwEvent::DcWrite), g(HwEvent::Stores), "writes: {ctx}");
    assert!(g(HwEvent::DcReadMiss) <= g(HwEvent::DcRead), "{ctx}");
    assert!(g(HwEvent::DcWriteMiss) <= g(HwEvent::DcWrite), "{ctx}");
    assert!(
        g(HwEvent::BranchMispredict) <= g(HwEvent::Branches),
        "mispredicts <= branches: {ctx}"
    );
}

#[test]
fn suite_cycles_are_exactly_uops_plus_penalties() {
    for w in pp::workloads::suite(0.01) {
        for config in arenas() {
            let r = Machine::new(&w.program, config)
                .run(&mut NullSink)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let ctx = format!(
                "{} (no_fuse: {}, icache {} B)",
                w.name, config.no_fuse, config.icache_bytes
            );
            assert_identities(&r, &config, &ctx);
        }
    }
}

#[test]
fn random_program_cycles_are_exactly_uops_plus_penalties() {
    let spec = RandomSpec {
        num_procs: 4,
        max_depth: 3,
        max_stmts: 4,
        max_trip: 4,
    };
    for seed in 0..40u64 {
        let prog = random_program(seed, &spec);
        for config in arenas() {
            let r = Machine::new(&prog, config)
                .run(&mut NullSink)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let ctx = format!(
                "seed {seed} (no_fuse: {}, icache {} B)",
                config.no_fuse, config.icache_bytes
            );
            assert_identities(&r, &config, &ctx);
        }
    }
}
