//! `aix serve` under load: concurrent clients, pinned-seed fault
//! injection, deadlines, and a bounded queue small enough to shed.
//!
//! Not a paper figure — this tracks the daemon substrate. An in-process
//! server is hammered by a pool of clients whose request mix covers all
//! three work operations, several campaign shapes (so coalescing and the
//! queue both get exercise), and a sprinkling of hopeless 1 ms deadlines.
//! Every request must reach a terminal outcome — `ok`, `partial`,
//! `deadline`, `overloaded` (retried with the daemon's retry-after hint,
//! then counted if it keeps shedding) or `error` — and the run fails
//! loudly on any hang. Latency percentiles and the outcome histogram land
//! as a `serve:` record in `out/BENCH_serve.json`.

use crate::{Options, Table};
use aix_core::{append_bench_json, default_bench_json_path, EngineOptions};
use aix_obs::Value;
use aix_serve::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One request in the generated load.
struct Load {
    payload: String,
    deadline_ms: u64,
}

fn request_mix(requests: usize) -> Vec<Load> {
    // Four distinct campaigns over three ops: enough variety to fill the
    // queue, enough repetition that coalescing visibly pays.
    let campaigns = [
        ("characterize", "adder", 4usize),
        ("characterize", "adder", 6),
        ("select-precision", "multiplier", 4),
        ("verify", "adder", 4),
    ];
    (0..requests)
        .map(|i| {
            let (op, kind, width) = campaigns[i % campaigns.len()];
            // Every sixth request carries a hopeless deadline to exercise
            // the cancellation path; the rest get a generous one.
            let deadline_ms = if i % 6 == 5 { 1 } else { 120_000 };
            Load {
                payload: format!(
                    "{{\"op\":\"{op}\",\"kind\":\"{kind}\",\"width\":{width},\
                     \"quick\":true,\"samples\":2,\"seed\":7,\"deadline_ms\":{deadline_ms}}}"
                ),
                deadline_ms,
            }
        })
        .collect()
}

/// Runs the serve load experiment.
pub fn run(options: &Options) -> String {
    let requests = options.scaled("requests", 24, 100);
    let clients = options.get_usize("clients", 6).max(1);
    let workers = options.get_usize("workers", 2);
    let queue_cap = options.get_usize("queue-cap", 3);
    let fault = options
        .get("fault")
        .unwrap_or("io:p=0.2,seed=11,stage=synth");

    let scratch = std::env::temp_dir().join(format!("aix-exp-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut engine = EngineOptions::sequential();
    engine.cache_dir = Some(scratch.join("cache"));
    engine.journal_dir = Some(scratch.join("journal"));
    engine.resume = true;
    engine.retries = 2;
    engine.backoff_ms = 1;
    engine.backoff_cap_ms = 20;
    engine.faults = Some(Arc::new(fault.parse().expect("well-formed --fault spec")));

    let mut config = ServerConfig::local_default(engine);
    config.workers = workers;
    config.queue_cap = queue_cap;
    config.journal_path = Some(scratch.join("serve-requests.journal"));
    let server = Server::bind(config).expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let daemon = std::thread::spawn(move || server.run());

    let mix = Arc::new(request_mix(requests));
    let outcomes: Arc<Mutex<BTreeMap<String, usize>>> = Arc::default();
    let latencies_ms: Arc<Mutex<Vec<f64>>> = Arc::default();
    let started = Instant::now();
    let client_threads: Vec<_> = (0..clients)
        .map(|c| {
            let (addr, mix) = (addr.clone(), Arc::clone(&mix));
            let (outcomes, latencies_ms) = (Arc::clone(&outcomes), Arc::clone(&latencies_ms));
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect to the daemon");
                // The hang backstop: no response within this bound is a
                // daemon bug, not load.
                client
                    .set_response_timeout(Some(Duration::from_secs(300)))
                    .expect("socket timeout");
                for load in mix.iter().skip(c).step_by(clients.max(1)) {
                    let sent = Instant::now();
                    let mut outcome = String::from("error");
                    for _attempt in 0..4 {
                        let response = client.call(&load.payload).expect("a terminal response");
                        outcome = response.status().to_owned();
                        if outcome != "overloaded" {
                            break;
                        }
                        let hint = response.int_field("retry_after_ms").unwrap_or(100);
                        std::thread::sleep(Duration::from_millis((hint as u64).min(300)));
                    }
                    if load.deadline_ms > 1 && outcome != "overloaded" {
                        latencies_ms
                            .lock()
                            .unwrap()
                            .push(sent.elapsed().as_secs_f64() * 1000.0);
                    }
                    *outcomes.lock().unwrap().entry(outcome).or_insert(0) += 1;
                }
            })
        })
        .collect();
    for worker in client_threads {
        worker.join().expect("client threads must not panic");
    }
    let wall_s = started.elapsed().as_secs_f64();

    let status = Client::connect(&addr)
        .and_then(|mut c| c.status())
        .expect("status from a live daemon");
    Client::connect(&addr)
        .and_then(|mut c| c.shutdown())
        .expect("graceful drain request");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly");
    let _ = std::fs::remove_dir_all(&scratch);

    let mut sorted = latencies_ms.lock().unwrap().clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let percentile = |q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    };
    let (p50, p99) = (percentile(0.50), percentile(0.99));
    let outcomes = outcomes.lock().unwrap().clone();
    let answered: usize = outcomes.values().sum();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve — {requests} requests, {clients} clients, {workers} workers, \
         queue {queue_cap}, fault `{fault}`\n"
    );
    let mut table = Table::new(&["outcome", "count"]);
    for (outcome, count) in &outcomes {
        table.row_owned(vec![outcome.clone(), count.to_string()]);
    }
    table.row_owned(vec!["TOTAL".to_owned(), answered.to_string()]);
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nlatency p50 {p50:.1} ms, p99 {p99:.1} ms over {} completed requests; wall {wall_s:.2} s",
        sorted.len()
    );
    let _ = writeln!(
        out,
        "daemon counters: accepted {} shed {} coalesce_hits {} deadline_exceeded {}",
        status.int_field("accepted").unwrap_or(-1),
        status.int_field("shed").unwrap_or(-1),
        status.int_field("coalesce_hits").unwrap_or(-1),
        status.int_field("deadline_exceeded").unwrap_or(-1),
    );
    assert_eq!(
        answered, requests,
        "every request must reach a terminal outcome"
    );

    let count = |key: &str| Value::from(outcomes.get(key).copied().unwrap_or(0));
    let record = aix_obs::render_object(&[
        ("label", Value::from("serve: concurrent load")),
        ("requests", Value::from(requests)),
        ("clients", Value::from(clients)),
        ("workers", Value::from(workers)),
        ("queue_cap", Value::from(queue_cap)),
        ("fault", Value::from(fault)),
        ("ok", count("ok")),
        ("partial", count("partial")),
        ("deadline", count("deadline")),
        ("overloaded", count("overloaded")),
        ("error", count("error")),
        ("shed", Value::from(status.int_field("shed").unwrap_or(0))),
        (
            "coalesce_hits",
            Value::from(status.int_field("coalesce_hits").unwrap_or(0)),
        ),
        ("p50_ms", Value::Float(p50)),
        ("p99_ms", Value::Float(p99)),
        ("wall_s", Value::Float(wall_s)),
    ]);
    let path = default_bench_json_path().with_file_name("BENCH_serve.json");
    match append_bench_json(&path, record) {
        Ok(()) => {
            let _ = writeln!(out, "\nrecord appended to {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(out, "\n(could not append {}: {e})", path.display());
        }
    }
    out
}
