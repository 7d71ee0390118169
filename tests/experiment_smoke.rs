//! Smoke test: every experiment module runs end-to-end on a miniature
//! configuration and produces well-formed tables and CSVs.

use ggrid_bench::experiments::{
    ablation, fig10_scalability, fig4_tuning, fig5_datasets, fig6_index_size, fig7_vary_k,
    fig8_vary_objects, fig9_vary_freq, sharding, table2_datasets, ExpConfig,
};

fn mini() -> ExpConfig {
    ExpConfig {
        scale: 4000,
        objects: 80,
        queries: 2,
        out_dir: std::env::temp_dir().join("ggrid_smoke_results"),
        ..ExpConfig::quick()
    }
}

#[test]
fn table2_smoke() {
    let t = table2_datasets::run(&mini());
    assert!(!t.rows.is_empty());
    assert!(t.render().contains("NY"));
}

#[test]
fn fig5_smoke_and_csv() {
    let cfg = mini();
    let t = fig5_datasets::run(&cfg);
    t.write_csv(&cfg.out_dir, "fig5_smoke").unwrap();
    let text = std::fs::read_to_string(cfg.out_dir.join("fig5_smoke.csv")).unwrap();
    assert!(text.lines().count() >= 2, "csv must have header + rows");
}

#[test]
fn fig4c_smoke() {
    let t = fig4_tuning::run_c(&mini());
    assert_eq!(t.rows.len(), 6);
}

#[test]
fn fig6_smoke() {
    let t = fig6_index_size::run(&mini());
    assert!(!t.rows.is_empty());
}

#[test]
fn fig7_smoke() {
    let ts = fig7_vary_k::run(&mini());
    assert!(!ts.is_empty());
}

#[test]
fn fig8_smoke() {
    let t = fig8_vary_objects::run(&mini());
    assert!(!t.rows.is_empty());
}

#[test]
fn fig9_smoke() {
    let t = fig9_vary_freq::run(&mini());
    assert!(!t.rows.is_empty());
}

#[test]
fn fig10_smoke() {
    let a = fig10_scalability::run_time_throughput(&mini());
    let b = fig10_scalability::run_transfers(&mini());
    assert!(!a.rows.is_empty());
    assert!(!b.rows.is_empty());
}

#[test]
fn ablation_smoke() {
    let t = ablation::run(&mini());
    assert_eq!(t.rows.len(), 4);
}

/// Minimal recursive-descent JSON well-formedness check that also
/// collects every object key it passes. The bench crate deliberately has
/// no serde dependency — the BENCH files are hand-formatted — so this
/// guards against a typo (trailing comma, unbalanced brace, unquoted
/// key) silently shipping a file downstream tooling can't read.
mod json {
    pub fn keys(text: &str) -> Result<Vec<String>, String> {
        let b = text.as_bytes();
        let mut keys = Vec::new();
        let mut i = 0;
        value(b, &mut i, &mut keys)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at offset {i}"));
        }
        Ok(keys)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize, keys: &mut Vec<String>) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i, keys),
            Some(b'[') => array(b, i, keys),
            Some(b'"') => string(b, i).map(|_| ()),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                Ok(())
            }
            Some(_) => {
                for lit in ["true", "false", "null"] {
                    if b[*i..].starts_with(lit.as_bytes()) {
                        *i += lit.len();
                        return Ok(());
                    }
                }
                Err(format!("unexpected byte at offset {i}", i = *i))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(b: &[u8], i: &mut usize, keys: &mut Vec<String>) -> Result<(), String> {
        *i += 1; // {
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            keys.push(string(b, i)?);
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at offset {i}", i = *i));
            }
            *i += 1;
            value(b, i, keys)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at offset {i}", i = *i)),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize, keys: &mut Vec<String>) -> Result<(), String> {
        *i += 1; // [
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(());
        }
        loop {
            value(b, i, keys)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at offset {i}", i = *i)),
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at offset {i}", i = *i));
        }
        let start = *i + 1;
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'\\' => *i += 2,
                b'"' => {
                    let s = String::from_utf8_lossy(&b[start..*i]).into_owned();
                    *i += 1;
                    return Ok(s);
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }
}

/// Every committed BENCH_*.json must parse and carry modeled-latency
/// keys — the contract downstream dashboards rely on.
#[test]
fn bench_json_files_parse_with_modeled_keys() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let keys = json::keys(&text).unwrap_or_else(|e| panic!("{name}: malformed JSON: {e}"));
        assert!(
            keys.iter().any(|k| k.contains("modeled") || k.ends_with("_ns")),
            "{name}: no modeled-time key (expected a key containing \"modeled\" or ending \"_ns\"); keys: {keys:?}"
        );
        assert!(
            keys.iter().any(|k| k == "bench"),
            "{name}: missing \"bench\" identity key"
        );
    }
    assert!(
        seen >= 8,
        "expected the committed BENCH files, found {seen}"
    );
}

#[test]
fn sharding_smoke() {
    let cfg = mini();
    let (t, report) = sharding::run(&cfg);
    assert_eq!(t.rows.len(), 14, "2 variants x 7 (D, rebalance) points");
    let json = report.render();
    assert!(json.contains("\"bench\": \"sharding\""));
    assert!(json.contains("\"efficiency_d4_uniform\""));
}
