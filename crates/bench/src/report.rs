//! Text-report helpers shared by the figure renders.

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup as a signed percentage over 1.0.
pub fn speedup_pct(s: f64) -> String {
    format!("{:+.2}%", (s - 1.0) * 100.0)
}

/// A crude horizontal bar for terminal "figures".
pub fn bar(value: f64, scale: f64, width: usize) -> String {
    let n = ((value / scale) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// Geometric mean of speedups (the conventional aggregate).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(speedup_pct(1.048), "+4.80%");
        assert_eq!(speedup_pct(0.99), "-1.00%");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(2.0, 1.0, 10), "##########");
        assert_eq!(bar(0.5, 1.0, 10), "#####");
        assert_eq!(bar(-1.0, 1.0, 10), "");
    }

    #[test]
    fn means() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
