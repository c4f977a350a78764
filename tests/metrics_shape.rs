//! Pins the Prometheus exposition *shape* of the daemon and the router:
//! every family and every label set must be present from the very first
//! (cold) scrape and must not change as traffic arrives — scrapers and
//! dashboards must never see series appear mid-flight. Also pins the
//! build-identity gauge on both processes and the shared latency-bucket
//! layout.

use std::collections::{BTreeMap, BTreeSet};

use taj::service::{route, serve, AnalyzeOpts, Client, RouterOptions, ServeOptions, ServerHandle};

const XSS_SERVLET: &str = r#"
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            resp.getWriter().println(name);
        }
    }
"#;

const SAFE_SERVLET: &str = r#"
    class Quiet extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println("static");
        }
    }
"#;

fn start(options: ServeOptions) -> (ServerHandle, Client) {
    let handle = serve(options).expect("server starts");
    let client = Client::connect(handle.addr()).expect("client connects");
    (handle, client)
}

fn tcp_addr(handle: &ServerHandle) -> String {
    match handle.addr() {
        taj::service::BoundAddr::Tcp(a) => a.to_string(),
        taj::service::BoundAddr::Unix(p) => panic!("expected TCP, got unix:{}", p.display()),
    }
}

/// `# TYPE` declarations: family name → kind.
fn families(exposition: &str) -> BTreeMap<String, String> {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.to_string()))
        })
        .collect()
}

/// Every sample's identity — `name{labels}` with the value stripped.
/// Equality of this set across scrapes is exactly "constant exposition
/// shape".
fn series(exposition: &str) -> BTreeSet<String> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.rsplit_once(' ').map(|(key, _value)| key.to_string()))
        .collect()
}

/// The `le` bucket labels of a histogram family, in exposition order.
fn bucket_les(exposition: &str, family: &str) -> Vec<String> {
    let prefix = format!("{family}_bucket{{le=\"");
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|l| l.split('"').next())
        .map(str::to_string)
        .collect()
}

fn sample_value(exposition: &str, key: &str) -> Option<f64> {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

const DAEMON_FAMILIES: &[(&str, &str)] = &[
    ("taj_uptime_seconds", "gauge"),
    ("taj_build_info", "gauge"),
    ("taj_flight_records", "gauge"),
    ("taj_workers", "gauge"),
    ("taj_max_queue", "gauge"),
    ("taj_queue_depth", "gauge"),
    ("taj_requests_total", "counter"),
    ("taj_requests_shed_total", "counter"),
    ("taj_analyze_requests_total", "counter"),
    ("taj_batch_requests_total", "counter"),
    ("taj_errors_total", "counter"),
    ("taj_timeouts_total", "counter"),
    ("taj_worker_panics_total", "counter"),
    ("taj_workers_reclaimed_total", "counter"),
    ("taj_prepare_runs_total", "counter"),
    ("taj_phase1_runs_total", "counter"),
    ("taj_phase2_runs_total", "counter"),
    ("taj_degraded_runs_total", "counter"),
    ("taj_cache_hits_total", "counter"),
    ("taj_cache_misses_total", "counter"),
    ("taj_cache_evictions_total", "counter"),
    ("taj_cache_entries", "gauge"),
    ("taj_cache_bytes_used", "gauge"),
    ("taj_cache_bytes_budget", "gauge"),
    ("taj_store_enabled", "gauge"),
    ("taj_store_quarantined_total", "counter"),
    ("taj_store_write_errors_total", "counter"),
    ("taj_store_bytes_budget", "gauge"),
    ("taj_store_replayed_entries", "gauge"),
    ("taj_store_open_seconds", "gauge"),
    ("taj_request_queue_wait_seconds", "histogram"),
    ("taj_request_run_seconds", "histogram"),
];

const ROUTER_FAMILIES: &[(&str, &str)] = &[
    ("taj_router_uptime_seconds", "gauge"),
    ("taj_build_info", "gauge"),
    ("taj_router_flight_records", "gauge"),
    ("taj_router_shards", "gauge"),
    ("taj_router_requests_total", "counter"),
    ("taj_router_analyze_requests_total", "counter"),
    ("taj_router_batch_requests_total", "counter"),
    ("taj_router_errors_total", "counter"),
    ("taj_router_local_fallbacks_total", "counter"),
    ("taj_router_shard_healthy", "gauge"),
    ("taj_router_shard_forwarded_total", "counter"),
    ("taj_router_shard_failovers_total", "counter"),
    ("taj_router_shard_state", "gauge"),
    ("taj_router_shard_retried_total", "counter"),
    ("taj_router_shard_probes_total", "counter"),
    ("taj_router_shard_opens_total", "counter"),
    ("taj_router_request_seconds", "histogram"),
];

fn assert_families(exposition: &str, expected: &[(&str, &str)], who: &str) {
    let got = families(exposition);
    let want: BTreeMap<String, String> =
        expected.iter().map(|(n, k)| (n.to_string(), k.to_string())).collect();
    assert_eq!(got, want, "{who} family set or kinds changed");
}

fn assert_build_info(exposition: &str, who: &str) {
    let line = exposition
        .lines()
        .find(|l| l.starts_with("taj_build_info{"))
        .unwrap_or_else(|| panic!("{who} missing taj_build_info sample"));
    assert!(line.contains("version=\""), "{who}: {line}");
    assert!(line.contains("fingerprint=\""), "{who}: {line}");
    assert!(line.ends_with(" 1"), "build info value must be 1: {line}");
}

#[test]
fn daemon_exposition_shape_is_constant_from_first_scrape() {
    let (handle, mut client) = start(ServeOptions { workers: 1, ..ServeOptions::tcp_ephemeral() });

    let cold = client.metrics().expect("cold scrape");
    assert_families(&cold, DAEMON_FAMILIES, "daemon");
    assert_build_info(&cold, "daemon");

    // Every series — label sets included — exists before any request:
    // exactly the three in-memory cache tiers plus the disk tier.
    let cold_series = series(&cold);
    let tiers: BTreeSet<&String> =
        cold_series.iter().filter(|k| k.starts_with("taj_cache_hits_total{")).collect();
    let want: Vec<String> = ["prepared", "phase1", "report", "disk"]
        .iter()
        .map(|tier| format!("taj_cache_hits_total{{tier=\"{tier}\"}}"))
        .collect();
    assert_eq!(tiers, want.iter().collect(), "cache tier series changed");

    // Warm the daemon with two programs, then rescrape: values move, the
    // series set must not.
    let opts = AnalyzeOpts::default();
    client.analyze(XSS_SERVLET, &opts).expect("warm analyze");
    client.analyze(SAFE_SERVLET, &opts).expect("warm second analyze");
    let warm = client.metrics().expect("warm scrape");
    assert_families(&warm, DAEMON_FAMILIES, "warm daemon");
    assert_eq!(cold_series, series(&warm), "daemon series set changed between scrapes");
    assert_eq!(sample_value(&warm, "taj_analyze_requests_total"), Some(2.0));

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn router_exposition_shape_is_constant_and_buckets_match_the_daemon() {
    let (shard, mut shard_client) =
        start(ServeOptions { workers: 1, ..ServeOptions::tcp_ephemeral() });
    let router =
        route(RouterOptions::tcp_ephemeral(vec![tcp_addr(&shard)])).expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    let cold = via_router.metrics().expect("cold router scrape");
    assert_families(&cold, ROUTER_FAMILIES, "router");
    assert_build_info(&cold, "router");
    let cold_series = series(&cold);

    // Per-shard families carry the shard address label; the breaker
    // state gauge is one-hot over all three states from scrape one.
    let shard_addr = tcp_addr(&shard);
    for family in ["taj_router_shard_healthy", "taj_router_shard_forwarded_total"] {
        let key = format!("{family}{{shard=\"{shard_addr}\"}}");
        assert!(cold_series.contains(&key), "missing {key}");
    }
    for state in ["closed", "open", "half_open"] {
        let key = format!("taj_router_shard_state{{shard=\"{shard_addr}\",state=\"{state}\"}}");
        assert!(cold_series.contains(&key), "missing {key}");
    }

    // The router-side latency histogram uses the daemon's exact bucket
    // layout, so per-hop latencies subtract cleanly on one dashboard.
    let daemon_text = shard_client.metrics().expect("daemon scrape");
    let daemon_buckets = bucket_les(&daemon_text, "taj_request_run_seconds");
    let router_buckets = bucket_les(&cold, "taj_router_request_seconds");
    assert!(!router_buckets.is_empty(), "router histogram must emit buckets");
    assert_eq!(router_buckets, daemon_buckets, "router/daemon bucket layouts diverged");

    // Warm through the router, rescrape: same shape, moving values.
    via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("warm routed analyze");
    let warm = via_router.metrics().expect("warm router scrape");
    assert_families(&warm, ROUTER_FAMILIES, "warm router");
    assert_eq!(cold_series, series(&warm), "router series set changed between scrapes");
    assert!(sample_value(&warm, "taj_router_request_seconds_count").unwrap_or(0.0) > 0.0);

    via_router.shutdown().expect("router drains");
    router.join();
    shard_client.shutdown().expect("shard shutdown");
    shard.join();
}
