//! Structured scenario results: per-cell metric statistics, rendered
//! grids, and the JSON emit consumed by the golden suite and CI artifacts.

use ldp_common::float::exactly_zero;
use ldp_common::Json;

use crate::metrics::Stats;
use crate::scenario::spec::{Entry, GridSpec};
use crate::table::Table;

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario id (`"fig3"`, …).
    pub id: String,
    /// Scenario headline.
    pub title: String,
    /// The paper's approximate reading, for the header.
    pub paper_anchor: String,
    /// Trials per cell.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Scale label (`"small"`, `"paper"`, or a fraction).
    pub scale_label: String,
    /// Per-cell metric statistics, in declaration order.
    pub cells: Vec<CellReport>,
    /// The rendered grids, in declaration order.
    pub grids: Vec<GridReport>,
    /// Footnotes.
    pub notes: Vec<String>,
}

/// One cell's summarized metrics.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell id.
    pub id: String,
    /// `(metric name, stats)` pairs, in stable order.
    pub metrics: Vec<(String, Stats)>,
}

/// One grid, rendered to a [`Table`].
#[derive(Debug, Clone)]
pub struct GridReport {
    /// The grid title.
    pub title: String,
    /// The pivoted table (leading row-label column included).
    pub table: Table,
}

impl ScenarioReport {
    /// Looks up one cell metric.
    pub fn metric(&self, cell: &str, metric: &str) -> Option<Stats> {
        self.cells
            .iter()
            .find(|c| c.id == cell)
            .and_then(|c| c.metrics.iter().find(|(name, _)| name == metric))
            .map(|(_, stats)| *stats)
    }

    /// Renders the run header, every grid, and the notes. Returns the
    /// full text (trailing newline included) so the caller that owns the
    /// terminal — `ldp repro` — decides where it goes; library code never
    /// prints (workspace lint rule H02).
    pub fn render_text(&self, csv: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Writing to a String is infallible; `let _ =` keeps that
        // explicit without an unwrap.
        let _ = writeln!(out, "LDPRecover reproduction — {}", self.title);
        let _ = writeln!(
            out,
            "figure={} trials={} scale={} seed={:#x}   (MSE scales ≈ 1/n: at scale σ \
             the noise floor is 1/σ × the paper's; method ordering is scale-invariant)",
            self.id, self.trials, self.scale_label, self.seed
        );
        if !self.paper_anchor.is_empty() {
            let _ = writeln!(out, "paper anchor: {}", self.paper_anchor);
        }
        let _ = writeln!(out);
        for grid in &self.grids {
            let _ = writeln!(out, "== {} ==", grid.title);
            if csv {
                out.push_str(&grid.table.render_csv());
            } else {
                out.push_str(&grid.table.render());
            }
            let _ = writeln!(out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Writes the report's JSON to disk and returns the final path.
    ///
    /// When `force_dir` is set — or `path` is an existing directory or
    /// ends with a path separator — the file lands at
    /// `<path>/<figure>.json`; parent directories are created either way.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        force_dir: bool,
    ) -> ldp_common::Result<std::path::PathBuf> {
        let ends_with_sep = path
            .as_os_str()
            .to_string_lossy()
            .ends_with(std::path::MAIN_SEPARATOR);
        let target = if force_dir || path.is_dir() || ends_with_sep {
            std::fs::create_dir_all(path)?;
            path.join(format!("{}.json", self.id))
        } else {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            path.to_path_buf()
        };
        ldp_common::write_atomic(&target, &self.to_json().render())?;
        Ok(target)
    }

    /// The report as a JSON tree (`render()` it for the `--json` emit).
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let metrics = cell
                    .metrics
                    .iter()
                    .map(|(name, stats)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("mean".into(), Json::Num(stats.mean)),
                                ("std".into(), Json::Num(stats.std)),
                                ("sem".into(), Json::Num(stats.sem())),
                                ("count".into(), Json::Num(stats.count as f64)),
                            ]),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".into(), Json::Str(cell.id.clone())),
                    ("metrics".into(), Json::Obj(metrics)),
                ])
            })
            .collect();
        let grids = self
            .grids
            .iter()
            .map(|grid| {
                let header: Vec<Json> = grid
                    .table
                    .header()
                    .iter()
                    .map(|h| Json::Str(h.clone()))
                    .collect();
                let rows: Vec<Json> = grid
                    .table
                    .rows()
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect()))
                    .collect();
                Json::Obj(vec![
                    ("title".into(), Json::Str(grid.title.clone())),
                    ("header".into(), Json::Arr(header)),
                    ("rows".into(), Json::Arr(rows)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("figure".into(), Json::Str(self.id.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            (
                "settings".into(),
                Json::Obj(vec![
                    ("trials".into(), Json::Num(self.trials as f64)),
                    ("seed".into(), Json::Num(self.seed as f64)),
                    ("scale".into(), Json::Str(self.scale_label.clone())),
                ]),
            ),
            ("cells".into(), Json::Arr(cells)),
            ("grids".into(), Json::Arr(grids)),
        ])
    }
}

impl GridReport {
    /// Pivots a grid spec against the computed cell metrics.
    pub(crate) fn render(spec: &GridSpec, report: &ScenarioReport) -> GridReport {
        let mut header = vec![spec.row_header.clone()];
        header.extend(spec.columns.iter().cloned());
        let mut table = Table::new(header);
        for row in &spec.rows {
            let mut cells = vec![row.label.clone()];
            cells.extend(row.entries.iter().map(|entry| render_entry(entry, report)));
            table.push_row(cells);
        }
        GridReport {
            title: spec.title.clone(),
            table,
        }
    }
}

fn render_entry(entry: &Entry, report: &ScenarioReport) -> String {
    match entry {
        Entry::Stat {
            cell,
            metric,
            format,
        } => match report.metric(cell, &metric.name()) {
            Some(stats) => format.render(stats.mean),
            None => "-".to_string(),
        },
        Entry::Text(text) => text.clone(),
        Entry::Improvement { cell } => match improvement(report, cell) {
            Some(v) => format!("{:.1}%", 100.0 * v),
            None => "-".to_string(),
        },
        Entry::MeanImprovement { cells } => {
            let values: Vec<f64> = cells
                .iter()
                .filter_map(|c| improvement(report, c))
                .collect();
            if values.len() == cells.len() && !values.is_empty() {
                format!(
                    "{:.1}%",
                    100.0 * values.iter().sum::<f64>() / values.len() as f64
                )
            } else {
                "-".to_string()
            }
        }
        Entry::Blank => String::new(),
    }
}

/// `1 − mse_recover/mse_before` of a cell (the Fig. 10 statistic).
fn improvement(report: &ScenarioReport, cell: &str) -> Option<f64> {
    let recover = report.metric(cell, "mse_recover")?;
    let before = report.metric(cell, "mse_before")?;
    (!exactly_zero(before.mean)).then(|| 1.0 - recover.mean / before.mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{Metric, RowSpec};
    use ldprecover::ArmKind;

    fn stats(mean: f64) -> Stats {
        Stats {
            mean,
            std: 0.1,
            count: 4,
        }
    }

    fn report() -> ScenarioReport {
        ScenarioReport {
            id: "figX".into(),
            title: "test".into(),
            paper_anchor: "".into(),
            trials: 4,
            seed: 9,
            scale_label: "small".into(),
            cells: vec![CellReport {
                id: "c1".into(),
                metrics: vec![
                    ("mse_before".into(), stats(0.1)),
                    ("mse_recover".into(), stats(0.02)),
                ],
            }],
            grids: vec![],
            notes: vec![],
        }
    }

    #[test]
    fn write_json_is_crash_atomic() {
        // The emit goes through write_atomic: after a successful write
        // the target holds the complete new document, and no staging
        // temp file survives in the directory — the crash window where
        // a torn half-file could exist is confined to the temp name,
        // which readers never open.
        let dir = std::env::temp_dir().join("ldp_report_write_json_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("figX.json");
        std::fs::write(&target, "{\"stale\": true}").unwrap();
        let written = report().write_json(&target, false).unwrap();
        assert_eq!(written, target);
        let body = std::fs::read_to_string(&target).unwrap();
        assert!(body.contains("\"figX\""), "new content landed: {body}");
        assert!(!body.contains("stale"), "old content fully replaced");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metric_lookup_and_sem() {
        let r = report();
        assert_eq!(r.metric("c1", "mse_before").unwrap().mean, 0.1);
        assert!(r.metric("c1", "nope").is_none());
        assert!(r.metric("nope", "mse_before").is_none());
        assert!((stats(1.0).sem() - 0.05).abs() < 1e-12);
        assert_eq!(
            Stats {
                mean: 1.0,
                std: 0.0,
                count: 1
            }
            .sem(),
            0.0
        );
    }

    #[test]
    fn grid_rendering_pivots_entries() {
        let r = report();
        let spec = GridSpec {
            title: "g".into(),
            row_header: "row".into(),
            columns: vec![
                "before".into(),
                "missing".into(),
                "impr".into(),
                "txt".into(),
            ],
            rows: vec![RowSpec {
                label: "r1".into(),
                entries: vec![
                    Entry::stat("c1", Metric::MseBefore),
                    Entry::stat("c1", Metric::mse(ArmKind::RecoverStar)),
                    Entry::Improvement { cell: "c1".into() },
                    Entry::Text("1.00e-1".into()),
                ],
            }],
        };
        let grid = GridReport::render(&spec, &r);
        let row = &grid.table.rows()[0];
        assert_eq!(row[0], "r1");
        assert_eq!(row[1], "1.000e-1");
        assert_eq!(row[2], "-");
        assert_eq!(row[3], "80.0%");
        assert_eq!(row[4], "1.00e-1");
    }

    #[test]
    fn json_emit_contains_cells_and_settings() {
        let r = report();
        let json = r.to_json();
        assert_eq!(json.get("figure").and_then(Json::as_str), Some("figX"));
        let settings = json.get("settings").unwrap();
        assert_eq!(settings.get("trials").and_then(Json::as_f64), Some(4.0));
        let cells = json.get("cells").and_then(Json::as_array).unwrap();
        let metrics = cells[0].get("metrics").unwrap();
        let before = metrics.get("mse_before").unwrap();
        assert_eq!(before.get("mean").and_then(Json::as_f64), Some(0.1));
        assert_eq!(before.get("count").and_then(Json::as_f64), Some(4.0));
        // Round-trips through the parser.
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }
}
