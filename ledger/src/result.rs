//! Result records: the one-line object a single run prints last (the
//! driver's contract) and the result file that collects many of them with
//! the machine fingerprint.

use crate::json::Json;
use crate::metrics;
use crate::run::RunOutput;

pub const SCHEMA: &str = "pbio-ledger/v1";

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunRecord {
    pub fn from_output(workload: &str, seed: u64, trace: bool, out: &RunOutput) -> RunRecord {
        let units = metrics::units();
        RunRecord {
            workload: workload.to_owned(),
            seed,
            trace,
            correct: out.correct(),
            attempted: out.checks.attempted,
            failed: out.checks.failed,
            metrics: out
                .metrics
                .iter()
                .map(|(name, value)| {
                    let unit = units.iter().find(|u| u.0 == *name).map_or("?", |u| u.1);
                    (name.clone(), *value, unit.to_owned())
                })
                .collect(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Exactly the keys the driver reads: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let m = Json::obj(vec![
                                ("value", (*value).into()),
                                ("unit", Json::str(unit.as_str())),
                            ]);
                            (name.clone(), m)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a record from a result line plus what the caller knows
    /// about the run that printed it.
    pub fn from_result_line(
        workload: &str,
        seed: u64,
        trace: bool,
        line: &Json,
    ) -> Result<RunRecord, String> {
        let field = |k: &str| {
            line.get(k)
                .ok_or_else(|| format!("result line lacks {k:?}"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_owned())),
                    _ => Err(format!("metric {name:?} lacks value or unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunRecord {
            workload: workload.to_owned(),
            seed,
            trace,
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: field("attempted")?
                .as_f64()
                .ok_or("attempted is not a number")? as u64,
            failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
            metrics,
        })
    }
}

/// A set of runs from one machine at one commit.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub fingerprint: Vec<(String, String)>,
    pub seconds: f64,
    pub runs: Vec<RunRecord>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                let Json::Obj(mut pairs) = r.result_line() else {
                    unreachable!("a result line is an object");
                };
                let mut head = vec![
                    ("workload".to_owned(), Json::str(r.workload.as_str())),
                    ("seed".to_owned(), r.seed.into()),
                    ("trace".to_owned(), u64::from(r.trace).into()),
                ];
                head.append(&mut pairs);
                Json::Obj(head)
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            (
                "fingerprint",
                Json::Obj(
                    self.fingerprint
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                        .collect(),
                ),
            ),
            ("seconds", self.seconds.into()),
            ("runs", Json::Arr(runs)),
        ])
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let json = Json::parse(text)?;
        let schema = json.get("schema").and_then(Json::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file (schema {schema:?})"));
        }
        let fingerprint = json
            .get("fingerprint")
            .and_then(Json::as_obj)
            .ok_or("missing fingerprint")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_owned()))
            .collect();
        let runs = json
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing runs")?
            .iter()
            .map(|r| {
                let workload = r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run lacks workload")?;
                let seed = r
                    .get("seed")
                    .and_then(Json::as_f64)
                    .ok_or("run lacks seed")? as u64;
                let trace = r
                    .get("trace")
                    .and_then(Json::as_f64)
                    .ok_or("run lacks trace")?
                    != 0.0;
                RunRecord::from_result_line(workload, seed, trace, r)
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile {
            fingerprint,
            seconds: json
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("missing seconds")?,
            runs,
        })
    }

    /// Values of `metric` on `workload` across this file's runs of the
    /// given kind, in run order.
    pub fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && r.trace == trace)
            .filter_map(|r| r.metric(metric))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, trace: bool) -> RunRecord {
        RunRecord {
            workload: "live_homo_100b".into(),
            seed,
            trace,
            correct: true,
            attempted: 1_234_567,
            failed: 0,
            metrics: vec![
                ("events_per_s".into(), 81234.56789012345, "1/s".into()),
                ("setup_s".into(), 0.012345678901234567, "s".into()),
            ],
        }
    }

    #[test]
    fn result_file_round_trips_through_text() {
        let file = ResultFile {
            fingerprint: vec![
                ("nproc".into(), "2".into()),
                ("kernel".into(), "6.1 \"x\"".into()),
            ],
            seconds: 24.0,
            runs: vec![record(1, false), record(2, true)],
        };
        for text in [file.to_json().pretty(), file.to_json().to_string()] {
            assert_eq!(ResultFile::parse(&text).unwrap(), file);
        }
        assert_eq!(
            file.values("live_homo_100b", false, "events_per_s"),
            vec![81234.56789012345]
        );
        assert!(file.values("live_homo_100b", true, "nope").is_empty());
        assert!(ResultFile::parse("{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = record(1, false).result_line();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.to_string().contains("\"attempted\": 1234567,"));
        let back = RunRecord::from_result_line("live_homo_100b", 1, false, &line).unwrap();
        assert_eq!(back, record(1, false));
    }
}
