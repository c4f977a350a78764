//! Robustness tests: recursion (through the RHS summary fixpoint and the
//! pointer analysis), inheritance across application classes, mutual
//! recursion, deep call chains, and servlet-lifecycle inheritance —
//! plus the CLI surviving a reader that closes its stdout pipe early.

use taj::{analyze_source, IssueType, RuleSet, TajConfig};

fn issues(src: &str) -> Vec<IssueType> {
    analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
        .expect("analysis runs")
        .findings
        .iter()
        .map(|f| f.flow.issue)
        .collect()
}

#[test]
fn recursive_identity_propagates_taint() {
    // The RHS summary for a recursive method must reach its fixpoint.
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = this.bounce(req.getParameter("q"), 5);
                resp.getWriter().println(v);
            }
            method String bounce(String s, int n) {
                if (n > 0) { return this.bounce(s, n - 1); }
                return s;
            }
        }
    "#;
    assert_eq!(issues(src), vec![IssueType::Xss]);
}

#[test]
fn mutually_recursive_helpers() {
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = this.ping(req.getParameter("q"), 4);
                resp.getWriter().println(v);
            }
            method String ping(String s, int n) {
                if (n > 0) { return this.pong(s, n - 1); }
                return s;
            }
            method String pong(String s, int n) {
                if (n > 0) { return this.ping(s, n - 1); }
                return s;
            }
        }
    "#;
    assert_eq!(issues(src), vec![IssueType::Xss]);
}

#[test]
fn recursion_through_heap() {
    // Recursive data structure: taint stored into a linked list node and
    // read back through a loop.
    let src = r#"
        class Node {
            field String value;
            field Node next;
            ctor (String v, Node n) { this.value = v; this.next = n; }
        }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Node head = new Node("clean", null);
                head = new Node(req.getParameter("q"), head);
                Node cur = head;
                while (cur != null) {
                    resp.getWriter().println(cur.value);
                    cur = cur.next;
                }
            }
        }
    "#;
    assert_eq!(issues(src), vec![IssueType::Xss]);
}

#[test]
fn inherited_do_get_is_driven() {
    // A servlet inheriting doGet from an application base class must still
    // be analyzed through the synthesized entrypoint.
    let src = r#"
        class BasePage extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = req.getParameter("q");
                resp.getWriter().println(v);
            }
        }
        class ChildPage extends BasePage {
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert!(
        report.findings.iter().any(|f| f.flow.issue == IssueType::Xss),
        "inherited lifecycle must be analyzed: {report:#?}"
    );
}

#[test]
fn interface_dispatch_flows() {
    let src = r#"
        interface Formatter {
            method String fmt(String s);
        }
        class RawFormatter implements Formatter {
            ctor () { }
            method String fmt(String s) { return s; }
        }
        class SafeFormatter implements Formatter {
            ctor () { }
            method String fmt(String s) { return URLEncoder.encode(s); }
        }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Formatter f = new RawFormatter();
                String v = f.fmt(req.getParameter("q"));
                resp.getWriter().println(v);
            }
        }
        class SafePage extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Formatter f = new SafeFormatter();
                String v = f.fmt(req.getParameter("q"));
                resp.getWriter().println(v);
            }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    let classes: Vec<&str> =
        report.findings.iter().map(|f| f.flow.sink_owner_class.as_str()).collect();
    assert!(classes.contains(&"Page"), "raw formatter leaks: {classes:?}");
    assert!(
        !classes.contains(&"SafePage"),
        "precise dispatch: SafeFormatter sanitizes, got {classes:?}"
    );
}

#[test]
fn static_field_flow() {
    let src = r#"
        class Globals {
            static field String last;
        }
        class WritePage extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Globals.last = req.getParameter("q");
            }
        }
        class ReadPage extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = Globals.last;
                resp.getWriter().println(v);
            }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.flow.sink_owner_class == "ReadPage" && f.flow.issue == IssueType::Xss),
        "static fields are a single global location: {report:#?}"
    );
}

#[test]
fn nested_try_catch() {
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                PrintWriter w = resp.getWriter();
                try {
                    try { this.inner(); } catch (RuntimeException r) { this.rethrow(r); }
                } catch (Exception e) {
                    w.println(e);
                }
            }
            method void inner() { throw new RuntimeException("deep"); }
            method void rethrow(RuntimeException r) { throw r; }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert!(
        report.findings.iter().any(|f| f.flow.issue == IssueType::InfoLeak),
        "rethrown exception still leaks: {report:#?}"
    );
}

#[test]
fn else_if_chain_lowering() {
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = req.getParameter("q");
                String out = "";
                int mode = 2;
                if (mode == 0) { out = "a"; }
                else if (mode == 1) { out = "b"; }
                else if (mode == 2) { out = v; }
                else { out = "c"; }
                resp.getWriter().println(out);
            }
        }
    "#;
    assert_eq!(issues(src), vec![IssueType::Xss]);
}

#[test]
fn deep_static_call_chain() {
    // 60 static hops: exercises summary reuse and stack safety.
    let mut src = String::from(
        r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = Chain.h0(req.getParameter("q"));
                resp.getWriter().println(v);
            }
        }
        class Chain {
        "#,
    );
    for i in 0..60 {
        if i == 59 {
            src.push_str(&format!("    static method String h{i}(String s) {{ return s; }}\n"));
        } else {
            src.push_str(&format!(
                "    static method String h{i}(String s) {{ return Chain.h{}(s); }}\n",
                i + 1
            ));
        }
    }
    src.push_str("}\n");
    assert_eq!(issues(&src), vec![IssueType::Xss]);
}

#[test]
fn taint_through_array_of_objects() {
    let src = r#"
        class Cell { field String v; ctor (String v) { this.v = v; } }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Cell[] cells = new Cell[] { new Cell(req.getParameter("q")) };
                Cell c = cells[0];
                resp.getWriter().println(c.v);
            }
        }
    "#;
    assert_eq!(issues(src), vec![IssueType::Xss]);
}

/// `taj analyze FILE --ir | head -1`: the reader takes one line and
/// closes the pipe while the CLI is still writing. The CLI must stop
/// quietly instead of panicking on the failed write.
#[test]
fn closed_stdout_pipe_is_not_a_panic() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let preset = taj::webgen::presets().into_iter().find(|p| p.name == "Webgoat").unwrap();
    let bench = taj::webgen::generate(&preset.spec(taj::webgen::Scale::standard()));
    let path = std::env::temp_dir().join(format!("taj-closed-pipe-{}.jweb", std::process::id()));
    std::fs::write(&path, &bench.source).expect("write generated preset");

    let mut child = Command::new(env!("CARGO_BIN_EXE_taj"))
        .arg("analyze")
        .arg(&path)
        .arg("--ir")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn taj");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).expect("read one line");
    assert!(!first.is_empty(), "the IR starts before the pipe closes");
    // The reader (and with it the pipe) is dropped here.
    let out = child.wait_with_output().expect("taj exits");
    let _ = std::fs::remove_file(&path);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "CLI panicked on a closed pipe: {stderr}");
    assert_ne!(out.status.code(), Some(101), "panic exit status: {stderr}");
    assert!(stderr.is_empty(), "a closed pipe is not worth a message: {stderr}");
}
