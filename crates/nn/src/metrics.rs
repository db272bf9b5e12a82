//! Binary-classification quality metrics.

use serde::{Deserialize, Serialize};

/// Confusion-matrix-derived metrics for a binary classifier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryMetrics {
    /// True positives.
    pub tp: usize,
    /// True negatives.
    pub tn: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl BinaryMetrics {
    /// Builds metrics from aligned prediction/label slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_predictions(preds: &[bool], labels: &[bool]) -> Self {
        assert_eq!(preds.len(), labels.len(), "preds/labels length");
        let mut m = BinaryMetrics::default();
        for (&p, &l) in preds.iter().zip(labels.iter()) {
            match (p, l) {
                (true, true) => m.tp += 1,
                (false, false) => m.tn += 1,
                (true, false) => m.fp += 1,
                (false, true) => m.fn_ += 1,
            }
        }
        m
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Fraction of correct predictions (0 for an empty set).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let m = BinaryMetrics::from_predictions(&[true, false, true], &[true, false, true]);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    fn all_wrong() {
        let m = BinaryMetrics::from_predictions(&[true, false], &[false, true]);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn mixed_case_counts() {
        let preds = [true, true, false, false];
        let labels = [true, false, true, false];
        let m = BinaryMetrics::from_predictions(&preds, &labels);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (1, 1, 1, 1));
        assert_eq!(m.accuracy(), 0.5);
    }

    #[test]
    fn empty_is_zero_not_nan() {
        let m = BinaryMetrics::default();
        assert_eq!(m.accuracy(), 0.0);
    }
}
