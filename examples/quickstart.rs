//! Quickstart: analyze a small servlet for the OWASP vulnerability
//! classes TAJ targets and print the report.
//!
//! Run with: `cargo run --example quickstart`

use taj::{analyze_source, RuleSet, TajConfig};

fn main() -> Result<(), taj::TajError> {
    let source = r#"
        class SearchPage extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String query = req.getParameter("q");
                PrintWriter out = resp.getWriter();

                // Reflected XSS: raw user input echoed to the response.
                out.println("You searched for: " + query);

                // SQL injection: raw user input concatenated into a query.
                Connection c = DriverManager.getConnection("jdbc:app");
                Statement st = c.createStatement();
                st.executeQuery("SELECT * FROM docs WHERE body LIKE " + query);

                // This one is fine: HTML-encoded before rendering.
                out.println(Encoder.encodeForHTML(query));
            }
        }
    "#;

    let report =
        analyze_source(source, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())?;

    println!("TAJ found {} issue(s):\n", report.issue_count());
    for (i, finding) in report.findings.iter().enumerate() {
        println!(
            "{:>2}. [{}] {} -> {} (in class {}, flow length {}, {} heap hop(s), \
             {} flow(s) share this fix point)",
            i + 1,
            finding.flow.issue,
            finding.flow.source_method,
            finding.flow.sink_method,
            finding.flow.sink_owner_class,
            finding.flow.flow_len,
            finding.flow.heap_transitions,
            finding.group_size,
        );
    }
    println!("\nAnalysis statistics:");
    println!("  call-graph nodes : {}", report.stats.cg_nodes);
    println!("  abstract objects : {}", report.stats.instance_keys);
    println!("  slicer work      : {}", report.stats.slicer_work);
    println!("  heap transitions : {}", report.stats.heap_transitions);
    Ok(())
}
