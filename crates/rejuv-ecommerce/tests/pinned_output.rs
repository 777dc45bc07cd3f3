//! Pins the DES output across builds: the exact bits of every
//! `RunMetrics` field for a handful of Fig. 9 cells and one cluster run.
//!
//! `determinism.rs` compares worker counts within one build, which
//! cannot notice a refactor that shifts every figure alike. These
//! constants can: a change to the event core, the models or the RNG
//! plumbing that moves any figure by one ulp fails here. After an
//! *intentional* model change, the failure message prints the new table.

use rejuv_core::{Sraa, SraaConfig};
use rejuv_ecommerce::cluster::{ClusterSystem, RoutingPolicy};
use rejuv_ecommerce::{RunMetrics, Runner, SystemConfig};

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
        .map(|row| {
            let cells: Vec<String> = row.as_ref().iter().map(|v| format!("{v:#x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect()
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

/// A 3-host cluster with GC, per-host SRAA and 30 s downtime: the
/// aggregate's bits, then `rejuvenations_per_host`, `gc_per_host` and
/// `rejected_no_host`.
fn cluster_run() -> Vec<u64> {
    let host = SystemConfig::paper_at_load(1.0).unwrap();
    let mut cluster = ClusterSystem::new(host, 3, 6.0, RoutingPolicy::LeastActive, 30.0, 0x5EED);
    let config = sraa(2, 5, 3);
    cluster.attach_detectors(|_| Box::new(Sraa::new(config)));
    let m = cluster.run(3_000);
    let mut out = bits(&m.aggregate).to_vec();
    out.extend(&m.rejuvenations_per_host);
    out.extend(&m.gc_per_host);
    out.push(m.rejected_no_host);
    out
}

#[rustfmt::skip]
const CLUSTER: [u64; 16] = [
    0x83b, 0x2b8, 0x401f6d057b7e3641, 0x40288c1d3634ead1, 0x4053ef8aaf1f3e08, 0x6, 0x6,
    0x407f1c26801c4d78, 0x0, 0x2, 0x2, 0x2, 0x2, 0x2, 0x2, 0xc5,
];

#[test]
fn cluster_run_is_pinned() {
    let actual = cluster_run();
    assert!(
        actual == CLUSTER,
        "the cluster run moved; the current values are\n{}",
        rows(&[actual])
    );
}
