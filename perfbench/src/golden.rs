//! The committed figure goldens the sweep is checked against: the per-app
//! cWSP slowdowns of `results/fig13_overhead.txt` and the all-suite scheme
//! gmeans of `results/fig_autofence.txt`, both at three decimals.

use std::path::Path;

/// The paper's all-suite cWSP gmean (Fig 13).
pub const PAPER_CWSP_GMEAN: f64 = 1.06;

pub struct Goldens {
    /// (app, slowdown) rows of Fig 13 in figure order.
    pub fig13_rows: Vec<(String, String)>,
    /// (scheme name as `Scheme::name`, all-suite gmean).
    pub gmeans: Vec<(&'static str, String)>,
}

fn read(root: &Path, name: &str) -> Result<String, String> {
    let p = root.join("results").join(name);
    std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))
}

/// `"   astar           1.004 x"` -> `("astar", "1.004")`.
fn row(line: &str) -> Option<(&str, &str)> {
    let mut it = line.split_whitespace();
    let (name, val, unit) = (it.next()?, it.next()?, it.next()?);
    (unit == "x" && it.next().is_none() && val.parse::<f64>().is_ok()).then_some((name, val))
}

impl Goldens {
    pub fn load(root: &Path) -> Result<Self, String> {
        let fig13 = read(root, "fig13_overhead.txt")?;
        let fig13_rows: Vec<(String, String)> = fig13
            .lines()
            .filter(|l| !l.contains("gmean"))
            .filter_map(row)
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        let af = read(root, "fig_autofence.txt")?;
        let mut gmeans = Vec::new();
        let mut scheme = None;
        for line in af.lines() {
            if let Some(label) = line.strip_prefix("-- ") {
                scheme = match label.trim() {
                    "AutoFence" => Some("autofence"),
                    "cWSP" => Some("cwsp"),
                    "Capri" => Some("capri"),
                    "ReplayCache" => Some("replaycache"),
                    _ => None,
                };
            } else if let (Some(s), Some(v)) = (scheme, line.trim().strip_prefix("All gmean")) {
                let v = v.trim().trim_end_matches('x').trim();
                gmeans.push((s, v.to_string()));
            }
        }
        if fig13_rows.len() != 38 || gmeans.len() != 4 {
            return Err(format!(
                "goldens: found {} Fig 13 rows and {} scheme gmeans, expected 38 and 4",
                fig13_rows.len(),
                gmeans.len()
            ));
        }
        Ok(Goldens { fig13_rows, gmeans })
    }

    /// Check per-app cWSP slowdowns (in figure order) against Fig 13.
    pub fn check_fig13(&self, apps: &[&str], slowdowns: &[f64]) -> Result<(), String> {
        for ((app, sd), (gname, gval)) in apps.iter().zip(slowdowns).zip(&self.fig13_rows) {
            let got = format!("{sd:.3}");
            if app != gname || &got != gval {
                return Err(format!(
                    "Fig 13 row: {app} {got} x, golden {gname} {gval} x"
                ));
            }
        }
        Ok(())
    }

    /// Check one scheme's all-suite gmean against its golden.
    pub fn check_gmean(&self, scheme: &str, gm: f64) -> Result<(), String> {
        let got = format!("{gm:.3}");
        match self.gmeans.iter().find(|(s, _)| *s == scheme) {
            Some((_, g)) if *g == got => Ok(()),
            Some((_, g)) => Err(format!("{scheme} gmean {got}, golden {g}")),
            None => Err(format!("no golden gmean for {scheme}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_parse_and_skip_gmeans() {
        assert_eq!(row("   astar           1.004 x"), Some(("astar", "1.004")));
        assert_eq!(row("   CPU2006         1.035 x (gmean)"), None);
        assert_eq!(row("-- CPU2006"), None);
    }
}
