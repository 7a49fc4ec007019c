//! The domain set `D = {d_1, ..., d_m}` (Definition 1).

use serde::{Deserialize, Serialize};

/// The 26 top-level categories of Yahoo Answers, which the paper uses as its
/// explicit domain set (Section 3, "The Implementations of DVE in DOCS").
pub const YAHOO_ANSWERS_DOMAINS: [&str; 26] = [
    "Arts & Humanities",
    "Beauty & Style",
    "Business & Finance",
    "Cars & Transportation",
    "Computers & Internet",
    "Consumer Electronics",
    "Dining Out",
    "Education & Reference",
    "Entertainment & Music",
    "Environment",
    "Family & Relationships",
    "Food & Drink",
    "Games & Recreation",
    "Health",
    "Home & Garden",
    "Local Businesses",
    "News & Events",
    "Pets",
    "Politics & Government",
    "Pregnancy & Parenting",
    "Science & Mathematics",
    "Social Science",
    "Society & Culture",
    "Sports",
    "Travel",
    "Yahoo Products",
];

/// An ordered, named set of domains used to interpret tasks and profile
/// workers (Definition 1).
///
/// The number of domains `m = |D|` fixes the length of every
/// [`crate::DomainVector`] and [`crate::QualityVector`] in a deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainSet {
    names: Vec<String>,
}

impl DomainSet {
    /// Builds a domain set from explicit names.
    ///
    /// # Panics
    /// Panics if `names` is empty; a deployment needs at least one domain.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "domain set must not be empty");
        DomainSet { names }
    }

    /// The 26-domain set DOCS deploys with (Yahoo Answers categories mapped
    /// onto Freebase domains in the paper).
    pub fn yahoo_answers() -> Self {
        DomainSet::new(YAHOO_ANSWERS_DOMAINS)
    }

    /// A small synthetic domain set `{politics, sports, films}` matching the
    /// running example of Section 2 (Tables 1 and 2).
    pub fn example3() -> Self {
        DomainSet::new(["politics", "sports", "films"])
    }

    /// Number of domains, `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false: construction rejects empty sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Name of domain `d_k`.
    pub fn name(&self, k: usize) -> &str {
        &self.names[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yahoo_answers_has_26_domains() {
        let d = DomainSet::yahoo_answers();
        assert_eq!(d.len(), 26);
        assert_eq!(d.name(23), "Sports");
    }

    #[test]
    fn example3_matches_paper_running_example() {
        let d = DomainSet::example3();
        assert_eq!(d.len(), 3);
        assert_eq!(d.name(0), "politics");
        assert_eq!(d.name(1), "sports");
        assert_eq!(d.name(2), "films");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_domain_set_rejected() {
        let _ = DomainSet::new(Vec::<String>::new());
    }

    #[test]
    fn names_preserve_order() {
        let d = DomainSet::new(["b", "a", "c"]);
        assert_eq!([d.name(0), d.name(1), d.name(2)], ["b", "a", "c"]);
    }
}
