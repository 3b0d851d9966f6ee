//! `GET /metrics` snapshots and the deltas between two of them.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use crate::http::Conn;

/// One parsed Prometheus text exposition: series (name plus labels,
/// exactly as rendered) → value.
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    pub fn scrape(addr: SocketAddr) -> Result<Snapshot, String> {
        let resp = Conn::new(addr)
            .request("GET", "/metrics", b"")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics answered {}", resp.status));
        }
        let mut series = BTreeMap::new();
        for line in resp.text().lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_owned(), v);
                }
            }
        }
        Ok(Snapshot(series))
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// What the server did between two snapshots.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    pub fn of(&self, key: &str) -> f64 {
        self.after.get(key) - self.before.get(key)
    }

    /// Mean of a histogram (`{name}_sum` / `{name}_count`) over the
    /// interval; `labels` is the rendered label set without braces.
    pub fn mean(&self, name: &str, labels: &str) -> f64 {
        let wrap = |suffix: &str| {
            if labels.is_empty() {
                format!("{name}_{suffix}")
            } else {
                format!("{name}_{suffix}{{{labels}}}")
            }
        };
        let count = self.of(&wrap("count"));
        if count <= 0.0 {
            return 0.0;
        }
        self.of(&wrap("sum")) / count
    }

    /// A quantile of a histogram over the interval, interpolated linearly
    /// inside the log₂ bucket that holds it.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .after
            .0
            .keys()
            .filter_map(|k| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, self.of(k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let (mut lo, mut below) = (0.0, 0.0);
        for (bound, cum) in buckets {
            if cum >= rank {
                if !bound.is_finite() {
                    return lo;
                }
                let inside = cum - below;
                let frac = if inside > 0.0 {
                    (rank - below) / inside
                } else {
                    1.0
                };
                return lo + (bound - lo) * frac;
            }
            lo = bound;
            below = cum;
        }
        lo
    }
}
