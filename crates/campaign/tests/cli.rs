//! The `campaign` binary on a closed stdout: a reader that goes away early
//! (`campaign report --timings <dir> | head -1`) must end the command
//! quietly, not with a broken-pipe panic.

use dl2fence_campaign::EVENTS_FILE;
use dl2fence_telemetry::{Event, EventData};
use std::process::Command;

#[test]
fn output_into_a_closed_pipe_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("dl2fence-cli-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let event = Event {
        seq: 0,
        t_us: 10,
        worker: 0,
        data: EventData::Span {
            name: "run".into(),
            dur_us: 5,
            parent: None,
            index: Some(0),
        },
    };
    std::fs::write(dir.join(EVENTS_FILE), format!("{}\n", event.emit())).unwrap();
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke.toml");

    for args in [
        vec!["expand", spec],
        vec!["report", "--timings", dir.to_str().unwrap()],
    ] {
        // The read end is closed before the command starts, so its first
        // write to stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(&args)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
