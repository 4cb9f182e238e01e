//! `perfbench` — the measuring half of the repository benchmark.
//! `run.py` builds it and drives it; each subcommand prints one JSON
//! object on its last stdout line.
//!
//! ```text
//! perfbench prepare   --dir D                      rules pack → D/rules.pack
//! perfbench reference --dir D --workload W --seed N [--tiny]
//! perfbench repeat    --dir D --workload W --seed N --index K --trace 0|1
//!                     --haystack BIN [--tiny] [--budget-s S]
//!                     [--fault drop-datagram|truncate-frame]
//! ```
//!
//! `reference` runs the `ReferenceDetector` over the workload's records
//! once per seed, outside every timed run, and writes the lines the
//! queries ask about. `repeat` is one set-up plus one timed run of the
//! workload (with `--trace 1`, plus the layer replays).

mod serve;
mod soak;
mod util;

use haystack_core::detector::DetectorConfig;
use haystack_core::pack::SignaturePack;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_core::{MapHitList, ReferenceDetector};
use serde_json::json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{percentile, Route, Shape, QUERY_LINES, SIDE_HOURS};

struct Args {
    cmd: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next().ok_or("missing subcommand")?;
        let mut flags = HashMap::new();
        while let Some(k) = it.next() {
            let k = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k}"))?;
            let v = if k == "tiny" {
                "1".to_string()
            } else {
                it.next().ok_or(format!("--{k} needs a value"))?
            };
            flags.insert(k.to_string(), v);
        }
        Ok(Args { cmd, flags })
    }

    fn get(&self, k: &str) -> Result<&str, String> {
        self.flags
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.get(k)?
            .parse()
            .map_err(|_| format!("--{k} is not a number"))
    }

    fn shape(&self) -> Result<(String, Shape), String> {
        let w = self.get("workload")?;
        let shape = Shape::of(w, self.flags.contains_key("tiny"))
            .ok_or_else(|| format!("unknown workload {w}"))?;
        Ok((w.to_string(), shape))
    }
}

fn main() {
    let r = Args::parse().and_then(|a| {
        let dir = PathBuf::from(a.get("dir")?);
        match a.cmd.as_str() {
            "prepare" => prepare(&dir),
            "reference" => reference(&a, &dir),
            "repeat" => repeat(&a, &dir),
            other => Err(format!("unknown subcommand {other}")),
        }
    });
    match r {
        Ok(v) => println!("{}", serde_json::to_string(&v).expect("serializable")),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The rules every workload runs: the fast pipeline's rule set at seed
/// 42 (the CLI's default), sealed as a signature pack.
fn prepare(dir: &Path) -> Result<serde_json::Value, String> {
    let rules = Pipeline::run(PipelineConfig::fast(42))
        .rules
        .as_ref()
        .clone();
    let pack = SignaturePack {
        rules,
        threshold: DetectorConfig::default().threshold,
        source: "perfbench prepare (fast pipeline, seed 42)".into(),
        comment: String::new(),
    };
    let bytes = pack.encode();
    std::fs::write(dir.join("rules.pack"), &bytes).map_err(|e| e.to_string())?;
    Ok(json!({"rules": pack.rules.rules.len(), "pack_bytes": bytes.len()}))
}

fn reference(a: &Args, dir: &Path) -> Result<serde_json::Value, String> {
    let (_, shape) = a.shape()?;
    let seed: u64 = a.num("seed")?;
    let t = Instant::now();
    let pack = util::load_pack(dir)?;
    let rules = &pack.rules;
    let config = DetectorConfig {
        threshold: pack.threshold,
        require_established: false,
    };
    let mut det = ReferenceDetector::new(rules, MapHitList::whole_window(rules), config);
    // Serve lines are the daemon's anonymized source addresses.
    let anon = (shape.route == Route::Serve).then(|| serve::anonymizer(seed));
    let targets = util::hit_targets(rules);
    let mut records = 0u64;
    serve::for_each_record(&shape, seed, shape.hours, &targets, |_, chunk| {
        records += chunk.len() as u64;
        for r in chunk {
            let line = anon
                .as_ref()
                .map_or(r.line, |a| a.anonymize(serve::line_ip(r.line.0)));
            det.observe(line, r.dst, r.dport, r.proto, r.established, r.hour);
        }
    });
    let rows: Vec<(String, Vec<u64>)> = util::class_names(rules)
        .into_iter()
        .map(|c| {
            let lines = det.detected_lines(&c).iter().map(|l| l.0).collect();
            (c, lines)
        })
        .collect();
    let mut all: Vec<u64> = rows.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    all.sort_unstable();
    all.dedup();
    let step = (all.len() / QUERY_LINES).max(1);
    let mut picks: Vec<u64> = all
        .iter()
        .step_by(step)
        .take(QUERY_LINES)
        .copied()
        .collect();
    if picks.is_empty() {
        picks.push(
            anon.as_ref()
                .map_or(0, |a| a.anonymize(serve::line_ip(0)).0),
        );
    }
    let text: Vec<String> = picks.iter().map(u64::to_string).collect();
    std::fs::write(dir.join("query_lines.txt"), text.join("\n")).map_err(|e| e.to_string())?;
    Ok(json!({
        "digest": util::digest(&rows),
        "detected_lines": all.len(),
        "records": records,
        "seconds": t.elapsed().as_secs_f64(),
    }))
}

fn query_lines(dir: &Path) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(dir.join("query_lines.txt")).map_err(|e| e.to_string())?;
    text.lines()
        .map(|l| l.parse().map_err(|_| "bad query_lines.txt".to_string()))
        .collect()
}

fn check(name: &str, ok: bool, detail: String) -> serde_json::Value {
    json!({"name": name, "ok": ok, "detail": detail})
}

fn p50(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

fn per_rec_ns(d: std::time::Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// max/mean of per-shard record counts (1.0 is perfectly even).
fn skew(counts: &[f64]) -> f64 {
    let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
    if mean > 0.0 {
        counts.iter().cloned().fold(0.0, f64::max) / mean
    } else {
        0.0
    }
}

fn repeat(a: &Args, dir: &Path) -> Result<serde_json::Value, String> {
    let (workload, shape) = a.shape()?;
    let seed: u64 = a.num("seed")?;
    let traced = a.get("trace")? == "1";
    let haystack = a.get("haystack")?;
    let fault = match a.flags.get("fault").map(String::as_str) {
        None | Some("none") => serve::Fault::None,
        Some("drop-datagram") => serve::Fault::DropDatagram,
        Some("truncate-frame") => serve::Fault::TruncateFrame,
        Some(other) => return Err(format!("unknown --fault {other}")),
    };
    let lines = query_lines(dir)?;
    let index: u64 = a.num("index")?;
    haystack_core::telemetry::set_enabled(true);
    match shape.route {
        Route::Serve => {
            let budget_s: f64 = a
                .flags
                .get("budget-s")
                .map_or(Ok(0.0), |_| a.num("budget-s"))?;
            repeat_serve(
                &workload, &shape, seed, index, traced, haystack, fault, &lines, dir, budget_s,
            )
        }
        _ => repeat_soak(&workload, &shape, seed, traced, haystack, &lines, dir),
    }
}

/// A traced pass over the first [`SIDE_HOURS`] hours on `route`, without
/// queries, under its own telemetry scope: the layers a workload's own
/// path does not run.
fn side_plan(plan: soak::Plan, route: Route) -> soak::Plan {
    soak::Plan {
        route,
        hours: SIDE_HOURS,
        traced: true,
        query_lines: &[],
        scope: "side",
        ..plan
    }
}

/// Counter checks and lost records for one live soak pass.
fn soak_checks(route: Route, p: &soak::Pass, scope: &str) -> (Vec<serde_json::Value>, u64) {
    let mut checks = vec![check(
        "pool_rejected",
        p.rejected == 0,
        format!("{} records", p.rejected),
    )];
    let done = match route {
        Route::Proc => {
            let restarts =
                p.counter("procpool.shard_restarts") + p.counter("procpool.heartbeat_misses");
            let shed = p.counter("procpool.degraded_shed_records");
            checks.push(check(
                "procpool_restarts",
                restarts == 0,
                format!("{restarts}"),
            ));
            checks.push(check("procpool_shed", shed == 0, format!("{shed}")));
            p.counter("procpool.records_in").saturating_sub(shed)
        }
        _ => {
            let observed: u64 = p.shard_counts(scope, "records_observed").iter().sum();
            let gated: u64 = p.shard_counts(scope, "prefilter_hits").iter().sum::<u64>()
                + p.shard_counts(scope, "prefilter_misses")
                    .iter()
                    .sum::<u64>();
            checks.push(check(
                "gate_accounting",
                gated == observed,
                format!("prefilter hits+misses {gated} vs observed {observed}"),
            ));
            observed
        }
    };
    checks.push(check(
        "conservation",
        done == p.sent,
        format!("sent {} observed {done}", p.sent),
    ));
    let lost = p.sent.saturating_sub(done) + p.rejected;
    (checks, lost.min(p.sent))
}

#[allow(clippy::too_many_arguments)]
fn repeat_soak(
    workload: &str,
    shape: &Shape,
    seed: u64,
    traced: bool,
    haystack: &str,
    lines: &[u64],
    dir: &Path,
) -> Result<serde_json::Value, String> {
    let ck = dir.join(format!("ckpt-{}", std::process::id()));
    let plan = soak::Plan {
        route: shape.route,
        shape: *shape,
        seed,
        hours: shape.hours,
        traced: false,
        query_lines: lines,
        scope: "pool",
        haystack,
        ckpt_root: &ck,
    };
    let u = soak::run(&plan, dir, soak::SETUPS)?;
    let (checks, lost) = soak_checks(shape.route, &u, "pool");
    let mut out = json!({
        "workload": workload,
        "setup_s": u.setup_s.clone(),
        "window_s": u.window_s,
        "steal_frac": u.steal_frac,
        "sent": u.sent,
        "lost": lost,
        "pauses_ms": u.pauses_ms.clone(),
        "query_ms": u.query_ms.clone(),
        "queries_failed": u.queries_failed,
        "peak_rss_kib": u.peak_rss_kib,
        "digest": u.digest.clone(),
        "checks": checks,
    });
    if !traced {
        return Ok(json!({"runs": [out]}));
    }
    let rps = |p: &soak::Pass| p.sent as f64 / p.window_s;
    let untraced_rps = rps(&u);
    drop(u);

    // Traced: the same pass with spans, the kernel replay, and side
    // passes for the layers this route does not run.
    let t = soak::run(
        &soak::Plan {
            traced: true,
            ..plan
        },
        dir,
        1,
    )?;
    let (t_checks, _) = soak_checks(shape.route, &t, "pool");
    let other = if shape.route == Route::Proc {
        Route::Thread
    } else {
        Route::Proc
    };
    let side = soak::run(&side_plan(plan, other), dir, 1)?;
    let kernel = soak::kernel(shape, seed, dir)?;
    let pack = util::load_pack(dir)?;
    let targets = util::hit_targets(&pack.rules);
    let traffic = serve::traffic(shape, seed, SIDE_HOURS, &targets);
    let chain = serve::replica(&pack, seed, &traffic.datagrams, true)?;
    let (thr, thr_scope, prc) = match shape.route {
        Route::Proc => (&side, "side", &t),
        _ => (&t, "pool", &side),
    };
    let shards: Vec<f64> = thr
        .shard_counts(thr_scope, "records_observed")
        .iter()
        .map(|&c| c as f64)
        .collect();
    let layers = json!({
        "wild.gen_ns_per_rec": per_rec_ns(t.ledger.get("gen"), t.sent),
        "core.parallel.dispatch_ns_per_rec": per_rec_ns(thr.ledger.get("dispatch"), thr.sent),
        "core.parallel.backpressure_stalls": thr.counter(&format!("{thr_scope}.backpressure_stalls")),
        "core.parallel.shard_skew": skew(&shards),
        "core.gate.ns_per_rec": kernel.gate_ns_per_rec,
        "core.gate.pass_frac": kernel.pass_frac,
        "core.hitlist.match_frac": kernel.match_frac,
        "core.detector.ns_per_probe": kernel.ns_per_probe,
        "core.detector.state_entries": t.state_entries,
        "core.checkpoint.export_ms_p50": p50(&t.export_ms),
        "core.checkpoint.write_ms_p50": p50(&t.write_ms),
        "core.checkpoint.dirty_entries": p50(&t.dirty),
        "core.checkpoint.delta_bytes": p50(&t.delta_bytes),
        "core.procpool.dispatch_ns_per_rec": per_rec_ns(prc.ledger.get("dispatch"), prc.sent),
        "core.procpool.export_ms_p50": p50(&prc.export_ms),
        "core.procpool.restarts": prc.counter("procpool.shard_restarts") + prc.counter("procpool.heartbeat_misses"),
        "flow.listener.queue_depth_p50": 0u64,
        "flow.listener.shed": 0u64,
        "flow.collector.decode_ns_per_rec": per_rec_ns(chain.ledger.get("decode"), chain.records),
        "flow.collector.template_misses": chain.template_misses,
        "flow.collector.missed_records": chain.missed_records,
        "net.anonymize.ns_per_rec": per_rec_ns(chain.ledger.get("anonymize"), chain.records),
        "core.usage.ns_per_rec": per_rec_ns(chain.ledger.get("usage"), chain.records),
        "core.staleness.ns_per_rec": per_rec_ns(chain.ledger.get("staleness"), chain.records),
        "ledger.unaccounted_frac": 1.0 - t.ledger.total().as_secs_f64() / t.window_s,
        "trace.overhead_frac": 1.0 - rps(&t) / untraced_rps,
    });
    out["traced_checks"] = serde_json::Value::Array(t_checks);
    out["traced_digest"] = json!(t.digest.clone());
    out["layers"] = layers;
    out["ledger"] = json!({
        "live_stages_s": t.ledger.to_json(),
        "live_wall_s": t.window_s,
        "live_records": t.sent,
        "untraced_records_per_s": untraced_rps,
        "traced_records_per_s": rps(&t),
        "side_route": if other == Route::Proc { "proc" } else { "thread" },
        "side_stages_s": side.ledger.to_json(),
        "side_wall_s": side.window_s,
        "side_records": side.sent,
        "kernel_records": kernel.records,
        "kernel_gen_ns_per_rec": kernel.gen_ns_per_rec,
        "chain_stages_s": chain.ledger.to_json(),
        "chain_wall_s": chain.wall_s,
        "chain_records": chain.records,
    });
    Ok(json!({"runs": [out]}))
}

/// One daemon session's result row, with its correctness checks.
fn session_json(workload: &str, d: &serve::Daemon) -> serde_json::Value {
    let st = d.stats.clone().unwrap_or(serde_json::Value::Null);
    let num = |k: &str| st.get(k).and_then(serde_json::Value::as_u64).unwrap_or(0);
    let sum = |leaf: &str| {
        serve::shard_values(&d.metrics, "pool", leaf)
            .iter()
            .sum::<f64>() as u64
    };
    let observed = sum("records_observed");
    let gated = sum("prefilter_hits") + sum("prefilter_misses");
    let (received, admitted, shed) = (num("received"), num("admitted"), num("shed"));
    let decoded = num("records");
    let checks = vec![
        check(
            "conservation",
            decoded == d.sent_records && observed == d.sent_records,
            format!(
                "sent {} decoded {decoded} observed {observed}",
                d.sent_records
            ),
        ),
        check(
            "gate_accounting",
            gated == observed,
            format!("prefilter hits+misses {gated} vs observed {observed}"),
        ),
        check(
            "admission",
            received == admitted + shed && shed == 0 && received == d.sent_datagrams,
            format!(
                "sent {} received {received} admitted {admitted} shed {shed}",
                d.sent_datagrams
            ),
        ),
        check(
            "decode_and_pool_errors",
            num("decode_errors") == 0 && num("pool_errors") == 0,
            format!(
                "decode_errors {} pool_errors {}",
                num("decode_errors"),
                num("pool_errors")
            ),
        ),
    ];
    json!({
        "workload": workload,
        "setup_s": d.setup_s.clone(),
        "window_s": d.window_s,
        "steal_frac": d.steal_frac,
        "sent": d.sent_records,
        "lost": d.sent_records.saturating_sub(decoded.min(observed)),
        "pauses_ms": d.ckpt_ms.clone(),
        "query_ms": d.query_ms.clone(),
        "queries_failed": d.queries_failed,
        "query_late_ms_max": d.query_late_ms_max,
        "peak_rss_kib": d.peak_rss_kib,
        "digest": d.digest.clone(),
        "checks": checks,
        // Hitlist entry matches per record the shards observed: the
        // traffic's measured hit share, from the daemon's own counters.
        "match_share": sum("hitlist_matches") as f64 / observed.max(1) as f64,
    })
}

#[allow(clippy::too_many_arguments)]
fn repeat_serve(
    workload: &str,
    shape: &Shape,
    seed: u64,
    index: u64,
    traced: bool,
    haystack: &str,
    fault: serve::Fault,
    lines: &[u64],
    dir: &Path,
    budget_s: f64,
) -> Result<serde_json::Value, String> {
    let pack = util::load_pack(dir)?;
    let targets = util::hit_targets(&pack.rules);
    let traffic = serve::traffic(shape, seed, shape.hours, &targets);
    let plan = serve::DaemonPlan {
        haystack,
        run_dir: dir,
        seed,
        threshold: pack.threshold,
        query_ids: lines,
        query_rate: shape.query_rate,
        traced,
        fault,
    };
    // Untraced, sessions repeat (the traffic is encoded once) until the
    // budget is spent; traced, one session feeds the layer replays.
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let d = loop {
        let d = serve::daemon(&plan, index + runs.len() as u64, &traffic)?;
        runs.push(session_json(workload, &d));
        if traced || t0.elapsed().as_secs_f64() >= budget_s {
            break d;
        }
    };
    if !traced {
        return Ok(json!({"runs": runs}));
    }

    let ru = serve::replica(&pack, seed, &traffic.datagrams, false)?;
    let rt = serve::replica(&pack, seed, &traffic.datagrams, true)?;
    let kernel = soak::kernel(shape, seed, dir)?;
    let ck = dir.join(format!("ckpt-{}", std::process::id()));
    let base = soak::Plan {
        route: Route::Thread,
        shape: *shape,
        seed,
        hours: shape.hours,
        traced: true,
        query_lines: &[],
        scope: "side",
        haystack,
        ckpt_root: &ck,
    };
    let thr = soak::run(&side_plan(base, Route::Thread), dir, 1)?;
    let prc = soak::run(&side_plan(base, Route::Proc), dir, 1)?;
    let rps = |r: &serve::Replica| r.records as f64 / r.wall_s;
    let metric = |k: &str| d.metrics.get(k).copied().unwrap_or(0.0);
    let layers = json!({
        "wild.gen_ns_per_rec": traffic.gen_s * 1e9 / traffic.records.max(1) as f64,
        "core.parallel.dispatch_ns_per_rec": per_rec_ns(rt.ledger.get("dispatch"), rt.records),
        "core.parallel.backpressure_stalls": metric("haystack_pool_backpressure_stalls"),
        "core.parallel.shard_skew": skew(&serve::shard_values(&d.metrics, "pool", "records_observed")),
        "core.gate.ns_per_rec": kernel.gate_ns_per_rec,
        "core.gate.pass_frac": kernel.pass_frac,
        "core.hitlist.match_frac": kernel.match_frac,
        "core.detector.ns_per_probe": kernel.ns_per_probe,
        "core.detector.state_entries": rt.state_entries,
        "core.checkpoint.export_ms_p50": p50(&thr.export_ms),
        "core.checkpoint.write_ms_p50": p50(&thr.write_ms),
        "core.checkpoint.dirty_entries": p50(&thr.dirty),
        "core.checkpoint.delta_bytes": p50(&thr.delta_bytes),
        "core.procpool.dispatch_ns_per_rec": per_rec_ns(prc.ledger.get("dispatch"), prc.sent),
        "core.procpool.export_ms_p50": p50(&prc.export_ms),
        "core.procpool.restarts": prc.counter("procpool.shard_restarts") + prc.counter("procpool.heartbeat_misses"),
        "flow.listener.queue_depth_p50": p50(&d.queue_depth),
        "flow.listener.shed": d.stats.as_ref().and_then(|s| s.get("shed")).and_then(serde_json::Value::as_u64).unwrap_or(0),
        "flow.collector.decode_ns_per_rec": per_rec_ns(rt.ledger.get("decode"), rt.records),
        "flow.collector.template_misses": metric("haystack_collector_template_misses"),
        "flow.collector.missed_records": metric("haystack_collector_missed_records"),
        "net.anonymize.ns_per_rec": per_rec_ns(rt.ledger.get("anonymize"), rt.records),
        "core.usage.ns_per_rec": per_rec_ns(rt.ledger.get("usage"), rt.records),
        "core.staleness.ns_per_rec": per_rec_ns(rt.ledger.get("staleness"), rt.records),
        "ledger.unaccounted_frac": 1.0 - rt.ledger.total().as_secs_f64() / rt.wall_s,
        "trace.overhead_frac": 1.0 - rps(&rt) / rps(&ru),
    });
    let mut out = runs.pop().expect("one traced session");
    out["layers"] = layers;
    out["ledger"] = json!({
        "daemon_records_per_s": d.sent_records as f64 / d.window_s,
        "replica_untraced_records_per_s": rps(&ru),
        "replica_traced_records_per_s": rps(&rt),
        "replica_stages_s": rt.ledger.to_json(),
        "replica_wall_s": rt.wall_s,
        "replica_records": rt.records,
        "kernel_records": kernel.records,
        "side_thread_stages_s": thr.ledger.to_json(),
        "side_thread_records": thr.sent,
        "side_proc_stages_s": prc.ledger.to_json(),
        "side_proc_records": prc.sent,
        "queue_depth_samples": d.queue_depth.len(),
    });
    Ok(json!({"runs": [out]}))
}
