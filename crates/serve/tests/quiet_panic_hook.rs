//! The service silences planted job panics without silencing anything
//! else. Panic hooks are process-global, so this check lives in its own
//! test binary with a single test.

use clp_serve::{serve, JobSpec, ServiceConfig};
use std::panic;
use std::sync::{Arc, Mutex};

#[test]
fn planted_panics_are_quiet_and_later_panics_still_report() {
    let reported: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&reported);
    panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        sink.lock().expect("hook sink").push(msg);
    }));

    // No retries: the panicked attempt is the last one to run, so no
    // later clean attempt can mask a flag left set by the unwind.
    let mut spec = JobSpec::new(0, "conv", 4, 200_000);
    spec.sabotage = true;
    let cfg = ServiceConfig {
        max_retries: 0,
        ..ServiceConfig::default()
    };
    let r = serve(vec![(1, spec)], &cfg);
    assert_eq!(r.totals.panics, 1, "the planted panic fired");
    assert_eq!(r.totals.exhausted, 1, "the job ended on its panic");
    assert!(
        reported.lock().expect("hook sink").is_empty(),
        "planted panic reached the hook: {:?}",
        reported.lock().expect("hook sink")
    );

    // A panic on the same thread after the service returned must be
    // reported: the in-attempt flag was cleared while unwinding.
    let caught = panic::catch_unwind(|| panic!("after the service"));
    assert!(caught.is_err());
    drop(panic::take_hook());
    assert_eq!(
        *reported.lock().expect("hook sink"),
        vec!["after the service".to_string()]
    );
}
