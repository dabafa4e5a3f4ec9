//! Reading the service's own exposition (`Client::metrics()` over the
//! wire, `Registry::render_prometheus()` embedded): counter values and
//! histogram `_sum` / `_count` pairs, summed over label values when asked.

/// Sum and count of a histogram series.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SumCount {
    pub sum: f64,
    pub count: f64,
}

/// Value of every line `<series>{<labels>} <value>` whose label set
/// contains `label` (`key="value"`, or empty for any), summed.
fn sum_lines(text: &str, series: &str, label: &str) -> f64 {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(series)?.strip_prefix('{')?;
            let (labels, value) = rest.split_once("} ")?;
            if !label.is_empty() && !labels.split(',').any(|kv| kv == label) {
                return None;
            }
            value.trim().parse::<f64>().ok()
        })
        .sum()
}

/// A counter, summed over every label value.
pub fn counter(text: &str, name: &str) -> f64 {
    sum_lines(text, name, "")
}

/// A counter series with one label value (`label` is `key="value"`).
pub fn counter_with(text: &str, name: &str, label: &str) -> f64 {
    sum_lines(text, name, label)
}

/// A histogram's `_sum` / `_count` for one label value.
pub fn hist(text: &str, name: &str, label: &str) -> SumCount {
    SumCount {
        sum: sum_lines(text, &format!("{name}_sum"), label),
        count: sum_lines(text, &format!("{name}_count"), label),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_telemetry::Registry;

    #[test]
    fn reads_back_what_the_registry_renders() {
        let r = Registry::new();
        for v in [100u64, 300] {
            r.record("smartapps_stage_ns", "stage", "queue", v);
        }
        r.record("smartapps_stage_ns", "stage", "exec", 5000);
        r.add("smartapps_reactor_wakeups", "reactor", "0", 7);
        r.add("smartapps_reactor_wakeups", "reactor", "1", 5);
        r.add("smartapps_uploads", "outcome", "fresh", 4);
        let text = r.render_prometheus();
        let q = hist(&text, "smartapps_stage_ns", "stage=\"queue\"");
        assert_eq!((q.sum, q.count), (400.0, 2.0));
        assert_eq!(
            hist(&text, "smartapps_stage_ns", "stage=\"write\"").count,
            0.0
        );
        assert_eq!(counter(&text, "smartapps_reactor_wakeups"), 12.0);
        assert_eq!(
            counter_with(&text, "smartapps_uploads", "outcome=\"fresh\""),
            4.0
        );
        assert_eq!(
            counter_with(&text, "smartapps_uploads", "outcome=\"dedup\""),
            0.0
        );
        // `_sum` must not be mistaken for a bucket or the bare name.
        assert_eq!(counter(&text, "smartapps_stage_ns"), 0.0);
    }
}
