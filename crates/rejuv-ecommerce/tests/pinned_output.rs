//! Pins the DES output across builds: the exact bits of every
//! `RunMetrics` field for a handful of Fig. 9 cells, the model paths
//! those cells never take (a rate profile, set from the start or
//! mid-run, a mid-run rate change, no detector, a warm-up, one CPU, GCs
//! over a full running table), one cluster run per routing policy and
//! the cluster paths that run never takes.
//!
//! `determinism.rs` compares worker counts within one build, which
//! cannot notice a refactor that shifts every figure alike. These
//! constants can: a change to the event core, the models or the RNG
//! plumbing that moves any figure by one ulp fails here. After an
//! *intentional* model change, the failure message prints the new table.

use rejuv_core::{Clta, CltaConfig, Sraa, SraaConfig};
use rejuv_ecommerce::cluster::{ClusterMetrics, ClusterSystem, RoutingPolicy};
use rejuv_ecommerce::trace::merged_jsonl_lines;
use rejuv_ecommerce::{EcommerceSystem, RateProfile, RunMetrics, Runner, SystemConfig};

/// `RunMetrics` as bits, field by field in declaration order:
/// `completed, lost, mean_response_time, response_time_std_dev,
/// max_response_time, gc_count, rejuvenation_count, sim_duration_secs,
/// mean_active_threads` (`response_times` is not recorded).
type Bits = [u64; 9];

fn bits(m: &RunMetrics) -> Bits {
    assert!(m.response_times.is_empty(), "recording is off");
    [
        m.completed,
        m.lost,
        m.mean_response_time.to_bits(),
        m.response_time_std_dev.to_bits(),
        m.max_response_time.to_bits(),
        m.gc_count,
        m.rejuvenation_count,
        m.sim_duration_secs.to_bits(),
        m.mean_active_threads.to_bits(),
    ]
}

/// One line of hex literals per row, ready to paste over a table.
fn rows<R: AsRef<[u64]>>(rows: &[R]) -> String {
    rows.iter()
        .map(|row| format!("    {},\n", hex(row.as_ref())))
        .collect()
}

/// A row as a bracketed list of hex literals.
fn hex(row: &[u64]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v:#x}")).collect();
    format!("[{}]", cells.join(", "))
}

fn sraa(n: usize, k: usize, d: u32) -> SraaConfig {
    SraaConfig::builder(5.0, 5.0)
        .sample_size(n)
        .buckets(k)
        .depth(d)
        .build()
        .unwrap()
}

const CONFIGS: [(usize, usize, u32); 3] = [(1, 3, 5), (3, 1, 5), (15, 1, 1)];
const LOADS: [f64; 3] = [0.5, 8.0, 10.0];

/// Fig. 9 cells: `CONFIGS × LOADS`, replication 0 of a master-seed-1
/// runner at 2 000 transactions, laid out as `rejuv_bench` lays out a
/// sweep (series-major).
fn fig09_cells() -> Vec<Bits> {
    let runner = Runner::new(1, 2_000, 1);
    let base = SystemConfig::paper_at_load(1.0).unwrap();
    let mut out = Vec::new();
    for (n, k, d) in CONFIGS {
        let config = sraa(n, k, d);
        for load in LOADS {
            let system = base.with_arrival_rate(load * base.service_rate()).unwrap();
            let factory = move || Some(Box::new(Sraa::new(config)) as _);
            out.push(bits(
                &runner.replication_metrics(system, 0, &factory, false),
            ));
        }
    }
    out
}

#[rustfmt::skip]
const FIG09: [Bits; 9] = [
    [0x7d0, 0x0, 0x4014f6248b113824, 0x4019f38bd11417f5, 0x40542961ef15ea00, 0x6, 0x0, 0x40d37c6cd97fb663, 0x3fe0cfd98f546bb0],
    [0x737, 0x99, 0x40169ea4c45713be, 0x40196e2f3519a0d6, 0x405298107d46c904, 0x5, 0x4, 0x409350a85bcdf882, 0x40267cc1654f731c],
    [0x642, 0x18e, 0x4018bdf4ca2b61fb, 0x402039e2ea5017d3, 0x4053097e312f7f08, 0x5, 0x5, 0x40901ebd771f58ac, 0x403418734c395321],
    [0x7ce, 0x2, 0x4014f081b0db5af0, 0x401956bd5429e047, 0x4053cd5a02ffa800, 0x4, 0x5, 0x40d37c6cd97fb663, 0x3fe0c9ec2ee070a0],
    [0x730, 0xa0, 0x401425ac75e04955, 0x40174644f046650e, 0x4050828905ff9b80, 0x2, 0x9, 0x40934ebc5a1e30fa, 0x40244f01d8863339],
    [0x75d, 0x73, 0x40133716215155fd, 0x401319bebb5fb07b, 0x4040c571ea288a78, 0x2, 0x9, 0x409027e6ac5178ca, 0x4023bad77486ce0c],
    [0x7c7, 0x9, 0x4013cb377122d4de, 0x401385e4d68cb8ef, 0x4041ec0301677d60, 0x0, 0x12, 0x40d37c6cd97fb663, 0x3fdfb785b03ec177],
    [0x73c, 0x94, 0x4012e0c2db4e8c4f, 0x4012acf91d975647, 0x403df31b0455d0f0, 0x2, 0xe, 0x40933f3effd1a0fc, 0x4020a053f79b6b19],
    [0x737, 0x99, 0x4012a6a389599af0, 0x401278ed3a7b1176, 0x403dc8f2c89e05b0, 0x1, 0xd, 0x40902a8a458448f1, 0x4022ef6d26cddfc2],
];

#[test]
fn fig09_cells_are_pinned() {
    let actual = fig09_cells();
    assert!(
        actual == FIG09,
        "Fig. 9 cells moved; the current table is\n{}",
        rows(&actual)
    );
}

/// The model paths a Fig. 9 cell never takes, one row each:
///
/// 0. a sinusoidal rate profile (Lewis–Shedler thinning) with SRAA and
///    the event trace on: the bits, then the five `TraceCounters`;
/// 1. SRAA at load 5, then `set_arrival_rate` to load 10 mid-run: the
///    bits of both runs;
/// 2. load 9 with no detector attached;
/// 3. a Fig. 9 cell (SRAA(3,1,5) at load 10) behind a 1 000-transaction
///    `Runner::with_warmup`;
/// 4. SRAA at load 8 and a constant rate for 1 000 transactions, then
///    the sinusoidal profile of row 0 set mid-run: the bits of both runs;
/// 5. the paper's system cut to one CPU at load 0.7 with no detector,
///    so every GC delays a one-row running table;
/// 6. load 10 with no detector for 5 000 transactions, so GCs start
///    while all 16 CPUs are held.
fn model_paths() -> Vec<Vec<u64>> {
    let at_load = |load: f64| SystemConfig::paper_at_load(load).unwrap();
    let sraa_box = |n, k, d| Box::new(Sraa::new(sraa(n, k, d)));

    let mut profiled = EcommerceSystem::new(at_load(8.0), 0xF1A7);
    profiled.set_rate_profile(RateProfile::sinusoidal(1.6, 0.8, 500.0).unwrap());
    profiled.enable_trace(16);
    profiled.attach_detector(sraa_box(3, 1, 5));
    let mut profile_row = bits(&profiled.run(3_000)).to_vec();
    let c = profiled.trace().expect("trace enabled").counters();
    profile_row.extend([
        c.gc_started,
        c.gc_ended,
        c.overhead_entered,
        c.overhead_left,
        c.rejuvenations,
    ]);

    let mut shifted = EcommerceSystem::new(at_load(5.0), 0x5A1F);
    shifted.attach_detector(sraa_box(2, 5, 3));
    let mut shift_row = bits(&shifted.run(1_000)).to_vec();
    shifted
        .set_arrival_rate(at_load(10.0).arrival_rate())
        .unwrap();
    shift_row.extend(bits(&shifted.run(2_000)));

    let bare = bits(&EcommerceSystem::new(at_load(9.0), 0xBA5E).run(3_000)).to_vec();

    let config = sraa(3, 1, 5);
    let factory = move || Some(Box::new(Sraa::new(config)) as _);
    let warm = Runner::new(1, 2_000, 1).with_warmup(1_000);
    let warm_row = bits(&warm.replication_metrics(at_load(10.0), 0, &factory, false)).to_vec();

    let mut reprofiled = EcommerceSystem::new(at_load(8.0), 0x9F0F);
    reprofiled.attach_detector(sraa_box(3, 1, 5));
    let mut reprofile_row = bits(&reprofiled.run(1_000)).to_vec();
    reprofiled.set_rate_profile(RateProfile::sinusoidal(1.6, 0.8, 500.0).unwrap());
    reprofile_row.extend(bits(&reprofiled.run(2_000)));

    let paper = at_load(0.7);
    let one_cpu = SystemConfig::new(
        1,
        paper.arrival_rate(),
        paper.service_rate(),
        paper.kernel_threshold(),
        paper.kernel_factor(),
        paper.memory().copied(),
    )
    .unwrap();
    let single = bits(&EcommerceSystem::new(one_cpu, 0x1C9).run(3_000)).to_vec();

    let full = bits(&EcommerceSystem::new(at_load(10.0), 0xF011).run(5_000)).to_vec();

    vec![
        profile_row,
        shift_row,
        bare,
        warm_row,
        reprofile_row,
        single,
        full,
    ]
}

#[rustfmt::skip]
const MODEL_PATHS: [&[u64]; 7] = [
    &[0xaa1, 0x117, 0x40144ea4e4dca1db, 0x40176ffb055b012d, 0x4050a78c348f0a3c, 0x5, 0xd, 0x409ba92d93286b27, 0x40255da9809776ea, 0x5, 0x2, 0x1, 0x1, 0xd],
    &[0x3e8, 0x0, 0x40161511b82767f9, 0x4020eb0f6ef1103b, 0x4053a4e1228776c8, 0x3, 0x0, 0x408e84707bda8542, 0x40174cdd2eb12c3d, 0x69f, 0x131, 0x402242753ae98310, 0x402a246a24e56ba6, 0x405518d521c66488, 0x4, 0x3, 0x408e2ff9a230a862, 0x40387637d32cb982],
    &[0xbb8, 0x0, 0x40716a37e5c9f012, 0x406bf2c7e36290a1, 0x408724d15ed5b01c, 0xa, 0x0, 0x40a2b3174cd9aeaa, 0x4080cdea9aa8d88b],
    &[0x6b3, 0x11d, 0x40152a75bb6c13e1, 0x4019b3ca26e2640b, 0x40524a90c2da6e70, 0x2, 0x9, 0x408ee4b70f870d30, 0x402e13ab99cf4896],
    &[0x39c, 0x4c, 0x4013c96b0520f1b9, 0x4013cc0dc6e7885d, 0x40426b8f521f6c7e, 0x2, 0x4, 0x4083bc12f955709e, 0x40216ff4297e28f0, 0x6bd, 0x113, 0x4015253a9f6e3fb0, 0x401d105a167e9570, 0x40528b7c09103470, 0x4, 0x6, 0x4093ef6fb80f4b30, 0x4028fd943b2a5fa9],
    &[0xbb8, 0x0, 0x403507cf71256e10, 0x40376bbf36452cb7, 0x4063217033b44a80, 0xa, 0x0, 0x40d4f7f00c6bbe28, 0x400781bdd94396c5],
    &[0x1388, 0x0, 0x408735dccacff389, 0x407dd10bfe0a7757, 0x409968634d9f6a4a, 0x11, 0x0, 0x40b01b5d98ea5ff2, 0x4097bc03fd2aa3c7],
];

#[test]
fn model_paths_are_pinned() {
    let actual = model_paths();
    assert!(
        actual.iter().map(Vec::as_slice).eq(MODEL_PATHS),
        "the model paths moved; the current table is\n{}",
        actual
            .iter()
            .map(|row| format!("    &{},\n", hex(row)))
            .collect::<String>()
    );
}

/// A 3-host cluster with GC, per-host SRAA and 30 s downtime routed by
/// `policy`: the aggregate's bits, then `rejuvenations_per_host`,
/// `gc_per_host` and `rejected_no_host`.
fn cluster_run(policy: RoutingPolicy) -> Vec<u64> {
    let host = SystemConfig::paper_at_load(1.0).unwrap();
    let mut cluster = ClusterSystem::new(host, 3, 6.0, policy, 30.0, 0x5EED);
    let config = sraa(2, 5, 3);
    cluster.attach_detectors(|_| Box::new(Sraa::new(config)));
    cluster_bits(&cluster.run(3_000))
}

#[rustfmt::skip]
const CLUSTER: [u64; 16] = [
    0x83b, 0x2b8, 0x401f6d057b7e3641, 0x40288c1d3634ead1, 0x4053ef8aaf1f3e08, 0x6, 0x6,
    0x407f1c26801c4d78, 0x40505f6b99562d58, 0x2, 0x2, 0x2, 0x2, 0x2, 0x2, 0xc5,
];

#[rustfmt::skip]
const CLUSTER_RANDOM: [u64; 16] = [
    0x85d, 0x355, 0x40234c30095212f2, 0x4030259bd51eff57, 0x40578c7baafe4a9a, 0x6, 0x6,
    0x407f77655db5d02a, 0x40560f347e95e4df, 0x2, 0x2, 0x2, 0x2, 0x2, 0x2, 0x6,
];

#[rustfmt::skip]
const CLUSTER_ROUND_ROBIN: [u64; 16] = [
    0x8c9, 0x22e, 0x401fdf9a2d7b2ad3, 0x4025ef9751a97f83, 0x4054d021b8880eb8, 0x6, 0x6,
    0x407f0981d23622f3, 0x404ebf76adb385a4, 0x2, 0x2, 0x2, 0x2, 0x2, 0x2, 0xc9,
];

#[test]
fn cluster_run_is_pinned() {
    for (policy, pinned) in [
        (RoutingPolicy::LeastActive, CLUSTER),
        (RoutingPolicy::Random, CLUSTER_RANDOM),
        (RoutingPolicy::RoundRobin, CLUSTER_ROUND_ROBIN),
    ] {
        let actual = cluster_run(policy);
        assert!(
            actual == pinned,
            "the {policy:?} cluster run moved; the current values are\n{}",
            rows(&[actual])
        );
    }
}

/// A cluster run as `cluster_run` lays it out.
fn cluster_bits(m: &ClusterMetrics) -> Vec<u64> {
    let mut out = bits(&m.aggregate).to_vec();
    out.extend(&m.rejuvenations_per_host);
    out.extend(&m.gc_per_host);
    out.push(m.rejected_no_host);
    out
}

/// FNV-1a 64 over lines joined by `\n`.
fn fnv1a64(lines: &[String]) -> u64 {
    lines
        .join("\n")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The cluster paths `cluster_run` never takes, three rows per routing
/// policy:
///
/// 0. 4 hosts with no detector at 7.92 tx/s in total (~9.9 CPUs of load
///    per host) and zero downtime, 20 000 transactions;
/// 1. 3 hosts with SRAA(2,5,3), 30 s downtime and the event trace on:
///    10 000 transactions at 6 tx/s, then a sinusoidal profile set
///    mid-run and 10 000 more; the bits of both runs, each host's five
///    `TraceCounters` and the FNV-1a 64 of the merged trace;
/// 2. 1 host with CLTA(30) and 500 s downtime at 1.6 tx/s, 10 000
///    transactions, so arrivals find no host up.
fn cluster_paths() -> Vec<Vec<u64>> {
    let host = SystemConfig::paper_at_load(1.0).unwrap();
    let mut out = Vec::new();
    for policy in [
        RoutingPolicy::LeastActive,
        RoutingPolicy::Random,
        RoutingPolicy::RoundRobin,
    ] {
        let mut overload = ClusterSystem::new(host, 4, 7.92, policy, 0.0, 0x0E4D);
        out.push(cluster_bits(&overload.run(20_000)));

        let mut traced = ClusterSystem::new(host, 3, 6.0, policy, 30.0, 0x7ACE);
        let config = sraa(2, 5, 3);
        traced.attach_detectors(|_| Box::new(Sraa::new(config)));
        traced.enable_trace(4_096);
        let mut row = cluster_bits(&traced.run(10_000));
        traced.set_rate_profile(RateProfile::sinusoidal(6.0, 3.0, 500.0).unwrap());
        row.extend(cluster_bits(&traced.run(10_000)));
        let traces = traced.take_traces().expect("trace enabled");
        for trace in &traces {
            let c = trace.counters();
            row.extend([
                c.gc_started,
                c.gc_ended,
                c.overhead_entered,
                c.overhead_left,
                c.rejuvenations,
            ]);
        }
        row.push(fnv1a64(&merged_jsonl_lines(&traces)));
        out.push(row);

        let clta = CltaConfig::builder(5.0, 5.0)
            .sample_size(30)
            .quantile_factor(1.96)
            .build()
            .unwrap();
        let mut lone = ClusterSystem::new(host, 1, 1.6, policy, 500.0, 0xA11D);
        lone.attach_detector(0, Box::new(Clta::new(clta)));
        let m = lone.run(10_000);
        assert!(
            m.rejected_no_host > 0,
            "{policy:?}: no arrival was rejected"
        );
        out.push(cluster_bits(&m));
    }
    out
}

#[rustfmt::skip]
const CLUSTER_PATHS: [&[u64]; 9] = [
    &[0x4e20, 0x0, 0x408747b347d1be5c, 0x407dbec6d0aae0f2, 0x4099960a37ccc714, 0x44, 0x0, 0x40afcc0a5c87b39f, 0x40b7be34c5a0a14c, 0x0, 0x0, 0x0, 0x0, 0x11, 0x11, 0x11, 0x11, 0x0],
    &[0x1e6d, 0x866, 0x4023775f5fb5934f, 0x402d1b2e8c9e2f44, 0x4057e72d6a246650, 0x15, 0x15, 0x409a2e0035dbb97c, 0x4053a7a68f2422b6, 0x7, 0x7, 0x7, 0x7, 0x7, 0x7, 0x73, 0x1b3c, 0xba1, 0x4023db43fe852bf6, 0x402a812d26273373, 0x405838c711162940, 0xe, 0x16, 0x40993bc6477eafca, 0x40548ce5e2da8064, 0x8, 0x8, 0x6, 0x5, 0x4, 0x5, 0x33, 0xc, 0xb, 0x32, 0x32, 0xf, 0xb, 0xb, 0x28, 0x28, 0xf, 0xc, 0xc, 0x18, 0x18, 0xd, 0xda756921415307a8],
    &[0xac1, 0x97, 0x4015d3939c57d7bb, 0x401b600250963a84, 0x40546ed5cbe9d9f2, 0x6, 0x9, 0x40b8a40221b4cbfa, 0x400669dcfdf1059b, 0x9, 0x6, 0x1bb8],
    &[0x4e20, 0x0, 0x40861d23dc3981cc, 0x407d7bdbee649ef1, 0x409954393c37d454, 0x44, 0x0, 0x40af88555b2a4ac6, 0x40b6cfa89a6212d0, 0x0, 0x0, 0x0, 0x0, 0x11, 0x11, 0x11, 0x11, 0x0],
    &[0x1e65, 0x8e4, 0x40226f2846299977, 0x402e14fdff4ec996, 0x4057bafd33e33188, 0x16, 0x13, 0x409a0934f80f9647, 0x40552eaa997b17e4, 0x6, 0x6, 0x7, 0x7, 0x8, 0x7, 0x0, 0x1ac3, 0xc4d, 0x4023716ab2e22eb1, 0x402cd7d5e1db9672, 0x4056cb8027849ba0, 0x12, 0x14, 0x409998d8602536c9, 0x405905855402e184, 0x7, 0x6, 0x7, 0x6, 0x6, 0x6, 0x0, 0xd, 0xc, 0x17, 0x17, 0xd, 0xe, 0xe, 0x10, 0x10, 0xc, 0xd, 0xd, 0x20, 0x20, 0xe, 0xc64d89b31e87bc6c],
    &[0xac1, 0x97, 0x4015d3939c57d7bb, 0x401b600250963a84, 0x40546ed5cbe9d9f2, 0x6, 0x9, 0x40b8a40221b4cbfa, 0x400669dcfdf1059b, 0x9, 0x6, 0x1bb8],
    &[0x4e20, 0x0, 0x40853d0d6c156b57, 0x407d41afca333d33, 0x4098a46d88c02bdc, 0x44, 0x0, 0x40af55509d8129c7, 0x40b61b76203034ac, 0x0, 0x0, 0x0, 0x0, 0x11, 0x11, 0x11, 0x11, 0x0],
    &[0x1e39, 0x8d7, 0x40217dc8db98baea, 0x402add6e020fc224, 0x40567065b38d8ba0, 0x15, 0x12, 0x4099ee98b90c584e, 0x405473c40575a808, 0x6, 0x6, 0x6, 0x7, 0x7, 0x7, 0x0, 0x1afa, 0xc16, 0x4022e1a5f2c2375d, 0x402bb072895eadb8, 0x40573af5baf6cc40, 0x11, 0x14, 0x40991c84411eba1a, 0x4057c8be925ff66f, 0x7, 0x7, 0x6, 0x6, 0x5, 0x6, 0x0, 0xd, 0xd, 0x16, 0x16, 0xd, 0xc, 0xb, 0x17, 0x17, 0xd, 0xd, 0xd, 0x18, 0x18, 0xc, 0x72bf0a092eeb7a0b],
    &[0xac1, 0x97, 0x4015d3939c57d7bb, 0x401b600250963a84, 0x40546ed5cbe9d9f2, 0x6, 0x9, 0x40b8a40221b4cbfa, 0x400669dcfdf1059b, 0x9, 0x6, 0x1bb8],
];

#[test]
fn cluster_paths_are_pinned() {
    let actual = cluster_paths();
    assert!(
        actual.iter().map(Vec::as_slice).eq(CLUSTER_PATHS),
        "the cluster paths moved; the current table is\n{}",
        actual
            .iter()
            .map(|row| format!("    &{},\n", hex(row)))
            .collect::<String>()
    );
}
