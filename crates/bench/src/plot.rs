//! Terminal plotting: ASCII scatter plots and CDF curves, so the figure
//! binaries show the paper's plots directly in the terminal next to their
//! CSV output.

/// Render a scatter plot of `(x, y)` points into a `width x height`
/// character grid with axes and ranges. Also draws the `y = x` diagonal
/// (as `.`), which is the ideal line of Fig. 2's regression plot.
pub fn scatter(points: &[(f64, f64)], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 8, "plot area too small");
    if points.is_empty() {
        return "(no data)\n".to_string();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        lo = lo.min(x).min(y);
        hi = hi.max(x).max(y);
    }
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        hi = lo + 1.0;
    }
    let pad = (hi - lo) * 0.03;
    let (lo, hi) = (lo - pad, hi + pad);
    let mut grid = vec![vec![b' '; width]; height];
    // Diagonal y = x.
    #[expect(
        clippy::needless_range_loop,
        reason = "the row index depends on the column, so this cannot be an iterator chain over `grid`"
    )]
    for c in 0..width {
        let x = lo + (hi - lo) * (c as f64 + 0.5) / width as f64;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "x lies inside [lo, hi], so the scaled row is a non-negative screen coordinate; the bounds check below drops the edge"
        )]
        let r = ((hi - x) / (hi - lo) * height as f64) as usize;
        if r < height {
            grid[r][c] = b'.';
        }
    }
    // Points (x: truth, y: prediction).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "points lie inside the padded [lo, hi] range, so both scale to non-negative screen coordinates; the bounds check drops the edge"
    )]
    for &(x, y) in points {
        let c = (((x - lo) / (hi - lo)) * width as f64) as usize;
        let r = ((hi - y) / (hi - lo) * height as f64) as usize;
        if r < height && c < width {
            grid[r][c] = match grid[r][c] {
                b' ' | b'.' => b'o',
                b'o' => b'O',
                _ => b'@',
            };
        }
    }
    let mut out = String::new();
    #[expect(
        clippy::expect_used,
        reason = "grid cells only ever hold ASCII glyphs written by this module"
    )]
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:9.3} |")
        } else if i == height - 1 {
            format!("{lo:9.3} |")
        } else {
            "          |".to_string()
        };
        out.push_str(&label);
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "          +{}\n           {:<w$.3}{:>w2$.3}\n",
        "-".repeat(width),
        lo,
        hi,
        w = width / 2,
        w2 = width - width / 2
    ));
    out
}

/// Render one or more CDF series (as produced by
/// `routenet_core::metrics::cdf_points`) on a shared `width x height` grid.
/// Series are drawn with distinct glyphs in order: `o`, `x`, `+`, `*`.
pub fn cdf_chart(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 8, "plot area too small");
    let glyphs = [b'o', b'x', b'+', b'*'];
    let mut xmax = 0.0f64;
    for (_, pts) in series {
        for &(x, _) in pts.iter() {
            xmax = xmax.max(x);
        }
    }
    // Clip the x-axis at the 2x the largest p95-ish point for readability.
    let xmax = if xmax > 0.0 { xmax.min(2.0) } else { 1.0 };
    let mut grid = vec![vec![b' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "x is clipped to xmax and f is a CDF value in [0, 1], so both scale to in-range screen coordinates"
        )]
        for &(x, f) in pts.iter() {
            if x > xmax {
                continue;
            }
            let c = ((x / xmax) * (width - 1) as f64) as usize;
            let r = ((1.0 - f) * (height - 1) as f64) as usize;
            grid[r][c] = g;
        }
    }
    let mut out = String::new();
    #[expect(
        clippy::expect_used,
        reason = "grid cells only ever hold ASCII glyphs written by this module"
    )]
    for (i, row) in grid.iter().enumerate() {
        let frac = 1.0 - i as f64 / (height - 1) as f64;
        out.push_str(&format!("{frac:5.2} |"));
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "      +{}\n       0{:>w$.2}\n",
        "-".repeat(width),
        xmax,
        w = width - 1
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!(
            "       {} = {}\n",
            glyphs[si % glyphs.len()] as char,
            name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_renders_points_and_diagonal() {
        let pts = vec![(0.1, 0.1), (0.5, 0.6), (0.9, 0.85)];
        let s = scatter(&pts, 40, 12);
        assert!(s.contains('o') || s.contains('O'));
        assert!(s.contains('.'));
        assert!(s.lines().count() >= 12);
    }

    #[test]
    fn scatter_handles_empty_and_degenerate() {
        assert_eq!(scatter(&[], 40, 12), "(no data)\n");
        // all-identical points must not divide by zero
        let s = scatter(&[(0.5, 0.5), (0.5, 0.5)], 40, 12);
        assert!(s.contains('o') || s.contains('O'));
    }

    #[test]
    #[should_panic(expected = "plot area too small")]
    fn scatter_rejects_tiny_area() {
        scatter(&[(0.0, 0.0)], 5, 3);
    }

    #[test]
    fn cdf_chart_draws_all_series() {
        let a: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 * 0.01, i as f64 / 19.0))
            .collect();
        let b: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 * 0.03, i as f64 / 19.0))
            .collect();
        let s = cdf_chart(&[("fast", &a), ("slow", &b)], 50, 14);
        assert!(s.contains('o'));
        assert!(s.contains('x'));
        assert!(s.contains("o = fast"));
        assert!(s.contains("x = slow"));
        // y-axis labels from 1.00 down to 0.00
        assert!(s.contains(" 1.00 |"));
        assert!(s.contains(" 0.00 |"));
    }

    #[test]
    fn cdf_chart_clips_long_tails() {
        let a: Vec<(f64, f64)> = vec![(0.01, 0.5), (50.0, 1.0)]; // huge tail
        let s = cdf_chart(&[("t", &a)], 40, 10);
        // x-axis capped at 2.0
        assert!(s.contains("2.00") || s.contains("2.0"));
    }
}
