//! The serving path, in-process: a `bp-serve` daemon answers one `fig4`
//! evaluation at the target and seed CI's serve step queries, and the
//! answer must be the bytes `repro --quick --bare fig4` prints. The served
//! cold evaluation builds its window-16 oracle matrix through the same
//! candidate and matrix passes the batch path runs.

use bp_experiments::repro;
use bp_serve::{spawn, Client, Response, ServerConfig};
use bp_workloads::WorkloadConfig;

#[test]
fn served_fig4_equals_the_quick_repro_section() {
    let handle = spawn(ServerConfig {
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let mut client =
        Client::connect(&handle.local_addr().to_string()).expect("connect to the daemon");
    let seed = WorkloadConfig::default().seed;
    let served = match client.eval("fig4", seed, 40_000, None).expect("eval call") {
        Response::Result { output, .. } => output,
        other => panic!("expected a result, got {other:?}"),
    };
    handle.begin_drain();
    handle.join();

    let args = ["--quick", "--bare", "fig4"].map(String::from);
    let opts = repro::Options::parse(args).expect("the flags parse");
    let mut direct = Vec::new();
    repro::run(&opts, &mut direct).expect("repro runs fig4");
    // `repro` ends the section with a newline, as `bp-client` prints it.
    assert_eq!(format!("{served}\n"), String::from_utf8_lossy(&direct));
}
