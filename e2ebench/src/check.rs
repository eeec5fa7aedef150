//! Output checks: the serial in-process reference every workload's alerts
//! are compared against, and the multiset comparison itself.

use std::collections::{BTreeMap, HashSet};

use saql_collector::AttackStep;
use saql_engine::alert::AlertOrigin;
use saql_engine::{render_alert_json, Engine, EngineConfig, SessionStatus};
use saql_stream::source::IterSource;

use crate::inputs::{self, Inputs};

/// Tenant prefix the server scopes initial queries under.
const TENANT_PREFIX: &str = "default/";

/// The serial reference run of one seed's trace.
pub struct Reference {
    /// Every alert as `JsonLinesSink` writes it, in serial emission order
    /// (end-of-stream window flushes last).
    pub jsonl: Vec<u8>,
    /// The prefix of `jsonl` raised while the stream was live, before the
    /// end-of-stream flush.
    pub live_jsonl_len: usize,
    /// The same alerts as sorted lines: the multiset parallel and served
    /// runs must reproduce.
    pub sorted: Vec<String>,
    /// Sorted audit-query alert lines.
    pub audit_sorted: Vec<String>,
    /// Alerts per query, end-of-stream flush included.
    pub per_query_total: BTreeMap<String, u64>,
    /// Alerts per query raised while the stream was live (what a
    /// checkpointing server, which keeps windows open, delivers).
    pub per_query_live: BTreeMap<String, u64>,
    /// Attack steps no demo query detected (must be empty).
    pub undetected: Vec<AttackStep>,
}

impl Reference {
    pub fn compute(inputs: &Inputs) -> Reference {
        let mut engine = Engine::new(EngineConfig::default());
        for (name, src) in inputs::queries() {
            engine
                .register(name, src)
                .expect("benchmark queries compile");
        }
        let mut live = Vec::new();
        {
            let mut session = engine.session();
            session.attach(IterSource::new("reference", inputs.events.clone()));
            loop {
                let round = session.pump();
                live.extend(round.alerts);
                if round.status == SessionStatus::Done {
                    break;
                }
            }
        }
        let flushed = engine.finish();
        let mut per_query_live = BTreeMap::new();
        let mut per_query_total = BTreeMap::new();
        for (name, _) in inputs::queries() {
            per_query_live.insert(name.to_string(), 0);
            per_query_total.insert(name.to_string(), 0);
        }
        for alert in &live {
            *per_query_live.get_mut(&alert.query).expect("known query") += 1;
        }
        // The lines `JsonLinesSink` writes: one rendered alert per line.
        let mut jsonl = Vec::new();
        let mut live_jsonl_len = 0;
        for (i, alert) in live.iter().chain(&flushed).enumerate() {
            if i == live.len() {
                live_jsonl_len = jsonl.len();
            }
            *per_query_total.get_mut(&alert.query).expect("known query") += 1;
            jsonl.extend_from_slice(render_alert_json(alert).as_bytes());
            jsonl.push(b'\n');
        }
        if flushed.is_empty() {
            live_jsonl_len = jsonl.len();
        }
        let undetected = AttackStep::ALL
            .into_iter()
            .filter(|step| {
                let truth: HashSet<u64> = inputs
                    .attack_ids
                    .iter()
                    .filter(|(s, _)| s == step)
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                let query = inputs::step_query(*step);
                !live.iter().chain(&flushed).any(|a| {
                    a.query == query
                        && matches!(&a.origin, AlertOrigin::Match { event_ids }
                            if event_ids.iter().any(|id| truth.contains(id)))
                })
            })
            .collect();
        let sorted = sorted_lines(&jsonl);
        let audit_prefix = format!("{{\"query\":\"{}\"", inputs::AUDIT_QUERY);
        let audit_sorted = sorted
            .iter()
            .filter(|l| l.starts_with(&audit_prefix))
            .cloned()
            .collect();
        Reference {
            jsonl,
            live_jsonl_len,
            sorted,
            audit_sorted,
            per_query_total,
            per_query_live,
            undetected,
        }
    }

    pub fn alerts(&self) -> u64 {
        self.sorted.len() as u64
    }

    pub fn audit_alerts(&self) -> u64 {
        self.audit_sorted.len() as u64
    }
}

/// The non-empty lines of a JSONL buffer, sorted.
pub fn sorted_lines(jsonl: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = String::from_utf8_lossy(jsonl)
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    lines.sort_unstable();
    lines
}

/// A subscriber line with the server's tenant scope removed, so it reads
/// exactly as the reference renders the same alert.
pub fn unscoped(line: &str) -> String {
    let line = line.trim_end();
    match line.strip_prefix(&format!("{{\"query\":\"{TENANT_PREFIX}")) {
        Some(rest) => format!("{{\"query\":\"{rest}"),
        None => line.to_string(),
    }
}

/// Size of the symmetric difference of two sorted multisets: alerts
/// missing from `got` plus alerts `got` has in excess.
pub fn multiset_mismatch(want: &[String], got: &[String]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < want.len() && j < got.len() {
        match want[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (want.len() - i) as u64 + (got.len() - j) as u64
}

/// The largest event id in an alert line's `event_ids` (match alerts).
pub fn max_event_id(line: &str) -> Option<u64> {
    let start = line.find("\"event_ids\":[")? + "\"event_ids\":[".len();
    let end = start + line[start..].find(']')?;
    line[start..end]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_counts_both_directions() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            multiset_mismatch(&s(&["a", "b", "b"]), &s(&["a", "b", "b"])),
            0
        );
        assert_eq!(multiset_mismatch(&s(&["a", "b", "b"]), &s(&["a", "b"])), 1);
        assert_eq!(multiset_mismatch(&s(&["a"]), &s(&["b", "c"])), 3);
    }

    #[test]
    fn serve_lines_lose_their_tenant_scope() {
        assert_eq!(
            unscoped("{\"query\":\"default/q\",\"query_id\":3}\n"),
            "{\"query\":\"q\",\"query_id\":3}"
        );
        assert_eq!(
            max_event_id("{\"event_ids\":[4,19,7],\"rows\":{}}"),
            Some(19)
        );
        assert_eq!(max_event_id("{\"origin\":\"window\"}"), None);
    }
}
