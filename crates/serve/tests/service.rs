//! Integration tests of the threaded service: deterministic backpressure,
//! offline parity, hot-swap atomicity and leak-free shutdown.

mod common;

use common::{fixture, ingest_window, replay_parity};
use dl2fence::input::sample_frames;
use dl2fence::Dl2Fence;
use dl2fence_serve::{DetectionService, ModelBundle, RejectReason, ServeConfig};
use std::collections::BTreeMap;

fn small_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 2,
        max_tenants: 4,
        workers: 2,
        batch_windows: 3,
    }
}

#[test]
fn backpressure_is_deterministic_counted_and_replayable() {
    let fix = fixture();
    let service =
        DetectionService::new(small_config(), ModelBundle::f32_only(fix.export_a.clone()));
    // An idle drain returns immediately — nothing queued, nothing in flight.
    service.drain_until_idle();

    // Paused, tenant 0's ring absorbs exactly `queue_capacity` windows...
    service.pause();
    assert_eq!(ingest_window(&service, 0, &fix.samples[0]), Ok(0));
    assert_eq!(ingest_window(&service, 0, &fix.samples[1]), Ok(1));
    // ...and the next completing window is rejected with a reason.
    assert_eq!(
        ingest_window(&service, 0, &fix.samples[2]),
        Err(RejectReason::QueueFull)
    );
    service.resume();
    service.drain_until_idle();
    assert_eq!(service.take_verdicts().len(), 2);

    // The ring drained: the rejected window replays, nothing was lost.
    assert_eq!(ingest_window(&service, 0, &fix.samples[2]), Ok(2));
    service.drain_until_idle();
    assert_eq!(service.take_verdicts().len(), 1);

    let status = service.shutdown();
    assert_eq!(status.assembled_windows, 3);
    assert_eq!(status.rejected_for("queue_full"), 1);
    assert_eq!(status.rejected_total, 1);
    assert_eq!(status.verdicts, 3);
    assert_eq!(status.queued, 0);
    assert_eq!(status.in_flight, 0);
}

#[test]
fn f32_verdicts_match_offline_analyze_frames_bitwise() {
    let fix = fixture();
    let service =
        DetectionService::new(small_config(), ModelBundle::f32_only(fix.export_a.clone()));
    let mut source = BTreeMap::new();
    for (i, sample) in fix.samples.iter().enumerate() {
        let tenant = i as u64 % 2;
        let seq = ingest_window(&service, tenant, sample).expect("capacity suffices with draining");
        source.insert((tenant, seq), i);
        service.drain_until_idle();
    }
    let verdicts = service.take_verdicts();
    assert_eq!(verdicts.len(), fix.samples.len());

    // The f32 path is batch-composition independent, so every verdict must
    // equal the plain offline single-window API bit for bit.
    let mut offline = Dl2Fence::from_export(fix.export_a.clone());
    for v in &verdicts {
        let idx = source[&(v.tenant, v.seq)];
        let expected = offline.analyze_frames(
            sample_frames(&fix.samples[idx], common::DET),
            sample_frames(&fix.samples[idx], common::LOC),
        );
        assert_eq!(v.report, expected, "tenant {} window {}", v.tenant, v.seq);
    }

    let status = service.shutdown();
    let e2e = status
        .e2e
        .as_ref()
        .expect("e2e histogram must be populated");
    assert_eq!(e2e.count, verdicts.len() as u64);
    assert!(e2e.p99_us >= e2e.p50_us);
    assert!(
        status.stage("stage.detect").is_some(),
        "per-stage histograms must be populated, got: {:?}",
        status.stages
    );
}

#[test]
fn hot_swap_under_load_is_version_pure_and_lossless() {
    let fix = fixture();
    let service =
        DetectionService::new(small_config(), ModelBundle::f32_only(fix.export_a.clone()));
    let mut bundles = BTreeMap::new();
    bundles.insert(0, ModelBundle::f32_only(fix.export_a.clone()));

    let mut source = BTreeMap::new();
    let mut streamed = 0usize;
    let half = fix.samples.len() / 2;
    for (i, sample) in fix.samples.iter().enumerate() {
        if i == half {
            // Swap while windows are queued and possibly in flight — model B
            // in int8 form, so the change crosses both weights and precision.
            let v = service.swap_model(fix.export_b.clone(), Some(fix.quant_b.clone()));
            assert_eq!(v, 1);
            bundles.insert(
                1,
                ModelBundle {
                    version: 1,
                    ..ModelBundle::quantized(fix.export_b.clone(), fix.quant_b.clone())
                },
            );
        }
        let tenant = i as u64 % 3;
        match ingest_window(&service, tenant, sample) {
            Ok(seq) => {
                source.insert((tenant, seq), i);
                streamed += 1;
            }
            Err(RejectReason::QueueFull) => {
                service.drain_until_idle();
                let seq = ingest_window(&service, tenant, sample).expect("ring drained");
                source.insert((tenant, seq), i);
                streamed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    service.drain_until_idle();
    let verdicts = service.take_verdicts();
    assert_eq!(verdicts.len(), streamed, "no window lost across the swap");
    assert!(
        verdicts.iter().any(|v| v.model_version == 1),
        "post-swap verdicts must exist"
    );

    let failures = replay_parity(&verdicts, &source, &fix.samples, &bundles);
    assert!(failures.is_empty(), "{failures:?}");

    let status = service.shutdown();
    assert_eq!(status.swaps, 1);
    assert_eq!(status.model_version, 1);
    assert!(status.quantized);
    assert_eq!(
        status.model_fingerprint,
        bundles[&1].fingerprint(),
        "status reports the live bundle's fingerprint"
    );
}

#[test]
fn shutdown_mid_stream_drains_everything_before_joining() {
    let fix = fixture();
    let service = DetectionService::new(
        ServeConfig {
            queue_capacity: 16,
            ..small_config()
        },
        ModelBundle::quantized(fix.export_a.clone(), fix.quant_a.clone()),
    );
    let mut streamed = 0;
    for (i, sample) in fix.samples.iter().enumerate() {
        ingest_window(&service, i as u64 % 2, sample).expect("capacity 16 fits the fixture");
        streamed += 1;
    }
    // No drain: shutdown itself must finish every queued window.
    let status = service.shutdown();
    assert_eq!(status.assembled_windows, streamed);
    assert_eq!(status.verdicts, streamed);
    assert_eq!(status.queued, 0);
    assert_eq!(status.in_flight, 0);
    assert_eq!(status.rejected_total, 0);
}

#[test]
fn status_json_round_trips_with_populated_histograms() {
    let fix = fixture();
    let service =
        DetectionService::new(small_config(), ModelBundle::f32_only(fix.export_a.clone()));
    ingest_window(&service, 0, &fix.samples[0]).unwrap();
    service.drain_until_idle();
    let status = service.status();
    let parsed = dl2fence_serve::ServeStatus::from_json(&status.to_json()).unwrap();
    assert_eq!(parsed, status);
    assert!(
        parsed.e2e.is_some(),
        "non-empty p50/p99 in the JSON snapshot"
    );
    service.shutdown();
}

/// `dl2fence-serve status` into a closed pipe (`... | head -0`) ends quietly
/// instead of panicking on the broken pipe.
#[test]
fn status_into_a_closed_pipe_exits_quietly() {
    let fix = fixture();
    let service =
        DetectionService::new(small_config(), ModelBundle::f32_only(fix.export_a.clone()));
    let status = service.status();
    service.shutdown();
    let dir = std::env::temp_dir().join(format!("dl2fence-serve-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("status.json"), status.to_json()).unwrap();
    for json in [false, true] {
        // The read end is closed before the command starts, so its first
        // write to stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dl2fence-serve"));
        cmd.arg("status").arg(&dir).stdout(writer);
        if json {
            cmd.arg("--json");
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.status.success(), "{:?}\n{stderr}", out.status);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
