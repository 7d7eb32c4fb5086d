//! Machine-model invariants over random structured programs and
//! configurations. The exact event-accounting identities of the default
//! machine live in the root package's `tests/cost_identity.rs`.

use pp_ir::HwEvent;
use pp_usim::{Machine, MachineConfig, NullSink};
use pp_workloads::{random_program, RandomSpec};

fn spec() -> RandomSpec {
    RandomSpec {
        num_procs: 4,
        max_depth: 3,
        max_stmts: 4,
        max_trip: 4,
    }
}

#[test]
fn zero_penalty_machine_runs_at_cpi_one() {
    let config = MachineConfig {
        dcache_miss_penalty: 0,
        icache_miss_penalty: 0,
        mispredict_penalty: 0,
        fp_latency: 1,
        fdiv_latency: 1,
        store_drain_interval: 0,
        ..MachineConfig::default()
    };
    for seed in 0..10u64 {
        let prog = random_program(seed, &spec());
        let mut m = Machine::new(&prog, config);
        let r = m.run(&mut NullSink).expect("runs");
        assert_eq!(
            r.metrics.get(HwEvent::Cycles),
            r.metrics.get(HwEvent::Insts),
            "seed {seed}: with no penalties every cycle retires one uop"
        );
        assert_eq!(r.metrics.get(HwEvent::StoreBufStall), 0);
        assert_eq!(r.metrics.get(HwEvent::FpStall), 0);
    }
}

#[test]
fn pics_track_selected_events_mod_2_32() {
    // Default PCR selects (Cycles, Insts); the program never writes the
    // counters, so at exit they equal the ground-truth totals mod 2^32.
    for seed in [1u64, 9, 21] {
        let prog = random_program(seed, &spec());
        let mut m = Machine::new(&prog, MachineConfig::default());
        let r = m.run(&mut NullSink).expect("runs");
        let (p0, p1) = m.pics();
        assert_eq!(p0, r.metrics.get(HwEvent::Cycles) as u32, "seed {seed}");
        assert_eq!(p1, r.metrics.get(HwEvent::Insts) as u32, "seed {seed}");
    }
}

#[test]
fn shrinking_the_dcache_never_helps_a_streaming_walk() {
    // Use a suite benchmark with a large strided working set: a smaller
    // cache must produce at least as many misses.
    let w = pp_workloads::suite(0.05).swap_remove(3); // compress analog
    let mut misses = Vec::new();
    for kb in [4u64, 16, 64] {
        let config = MachineConfig {
            dcache_bytes: kb * 1024,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(&w.program, config);
        let r = m.run(&mut NullSink).expect("runs");
        misses.push(r.metrics.get(HwEvent::DcMiss));
    }
    assert!(
        misses[0] >= misses[1] && misses[1] >= misses[2],
        "misses {misses:?} should not increase with cache size"
    );
}

#[test]
fn l2_cache_absorbs_medium_working_sets_but_not_streams() {
    use pp_ir::build::ProgramBuilder;

    // Repeatedly walk a working set of the given size.
    let walker = |bytes: i64| {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("walk");
        let e = f.entry_block();
        let oh = f.new_block();
        let ih = f.new_block();
        let body = f.new_block();
        let oexit = f.new_block();
        let x = f.new_block();
        let rep = f.new_reg();
        let i = f.new_reg();
        let c = f.new_reg();
        let a = f.new_reg();
        let v = f.new_reg();
        f.block(e).mov(rep, 0i64).jump(oh);
        f.block(oh).cmp_lt(c, rep, 4i64).branch(c, ih, x);
        f.block(ih).mov(i, 0i64).jump(body);
        f.block(body)
            .mul(a, i, 32i64)
            .bin(pp_ir::instr::BinOp::Rem, a, a, bytes)
            .add(a, a, 0x100_0000i64)
            .load(v, a, 0)
            .add(i, i, 1i64)
            .cmp_lt(c, i, bytes / 32)
            .branch(c, body, oexit);
        f.block(oexit).add(rep, rep, 1i64).jump(oh);
        f.block(x).ret();
        let id = f.finish();
        pb.finish(id)
    };

    let run = |prog: &pp_ir::Program, config: MachineConfig| {
        Machine::new(prog, config)
            .run(&mut pp_usim::NullSink)
            .expect("runs")
            .cycles()
    };

    // 128 KB working set: misses the 16 KB L1 but fits a 512 KB L2.
    let medium = walker(128 * 1024);
    let no_l2 = run(&medium, MachineConfig::default());
    let with_l2 = run(&medium, MachineConfig::with_l2(512 * 1024));
    // The first sweep warms the L2; the re-walks hit it, so only compulsory
    // L2 misses pay memory latency: the L2 run must not be much slower,
    // and further L2 misses stay bounded.
    assert!(
        (with_l2 as f64) < no_l2 as f64 * 1.5,
        "L2 {with_l2} vs flat {no_l2}"
    );

    // 4 MB stream: blows through both levels; every L1 miss also pays
    // memory latency, so the L2 configuration is clearly slower than the
    // flat-penalty one.
    let big = walker(4 * 1024 * 1024);
    let no_l2_big = run(&big, MachineConfig::default());
    let with_l2_big = run(&big, MachineConfig::with_l2(512 * 1024));
    assert!(
        with_l2_big > no_l2_big,
        "streaming must expose memory latency: {with_l2_big} vs {no_l2_big}"
    );
}
