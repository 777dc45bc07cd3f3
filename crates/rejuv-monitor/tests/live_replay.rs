//! End-to-end replay determinism against the real §3 e-commerce model:
//! a live run feeds the monitoring runtime through a `MonitorBridge`
//! while recording an event log; replaying that log through a fresh
//! supervisor must reproduce the live report byte for byte.

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_ecommerce::{EcommerceSystem, SystemConfig};
use rejuv_monitor::{
    read_events, replay_fleet_events, EventLog, MonitorEvent, SharedBuffer, SharedSupervisor,
    Supervisor, SupervisorConfig,
};

#[test]
fn live_model_run_replays_byte_identically() {
    let config = SupervisorConfig {
        snapshot_every: Some(1_000),
        ..SupervisorConfig::default()
    };
    // SRAA with n = 2, K = 5, D = 3 at the SLA baseline.
    let spec = DetectorSpec::new(DetectorKind::Sraa);
    let buffer = SharedBuffer::new();
    let mut supervisor = Supervisor::with_specs(config, &[spec]).unwrap();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    log.record(&MonitorEvent::Start {
        shards: 1,
        detector: "SRAA".to_owned(),
        queue_capacity: config.queue_capacity as u64,
        drain_batch: config.drain_batch as u64,
        snapshot_every: config.snapshot_every,
    })
    .unwrap();
    supervisor.set_log(log);

    // A saturated run so the detector actually fires.
    let shared = SharedSupervisor::new(supervisor);
    let mut system = EcommerceSystem::new(SystemConfig::paper_at_load(9.5).unwrap(), 42);
    system.attach_detector(Box::new(shared.bridge(0)));
    let metrics = system.run(6_000);
    assert!(metrics.rejuvenation_count > 0, "detector should fire");
    drop(system);

    let mut supervisor = shared.try_into_inner().expect("bridges dropped");
    supervisor.take_log().unwrap().flush().unwrap();
    let live_report = supervisor.report();
    assert_eq!(
        live_report.total_rejuvenations, metrics.rejuvenation_count,
        "every model rejuvenation flowed through the runtime"
    );

    let events = read_events(std::io::Cursor::new(buffer.contents())).unwrap();
    let Some(MonitorEvent::Start {
        shards,
        queue_capacity,
        drain_batch,
        snapshot_every,
        ..
    }) = events.first()
    else {
        panic!("log must start with a Start header");
    };
    let replay_config = SupervisorConfig {
        queue_capacity: *queue_capacity as usize,
        drain_batch: *drain_batch as usize,
        snapshot_every: *snapshot_every,
        ..SupervisorConfig::default()
    };
    let specs = vec![spec; *shards as usize];
    let replayed = replay_fleet_events(&events, replay_config, &specs, None).unwrap();
    let replay_report = replayed.report();
    assert_eq!(live_report, replay_report);
    assert_eq!(
        serde_json::to_string(&live_report).unwrap(),
        serde_json::to_string(&replay_report).unwrap()
    );
}
