//! Unranked trees — the natural model of XML documents (Section 10).

use std::fmt;

/// An unranked tree: an element with arbitrarily many children, or a text
/// node (pcdata).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum UTree {
    Elem { label: String, children: Vec<UTree> },
    Text(String),
}

impl UTree {
    pub fn elem(label: &str, children: Vec<UTree>) -> UTree {
        UTree::Elem {
            label: label.to_owned(),
            children,
        }
    }

    pub fn leaf(label: &str) -> UTree {
        UTree::elem(label, Vec::new())
    }

    pub fn text(content: &str) -> UTree {
        UTree::Text(content.to_owned())
    }

    /// The element label, if this is an element.
    pub fn label(&self) -> Option<&str> {
        match self {
            UTree::Elem { label, .. } => Some(label),
            UTree::Text(_) => None,
        }
    }

    /// The children (empty for text nodes).
    pub fn children(&self) -> &[UTree] {
        match self {
            UTree::Elem { children, .. } => children,
            UTree::Text(_) => &[],
        }
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(UTree::size).sum::<usize>()
    }

    /// True if this is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self, UTree::Text(_))
    }

    /// Looks up an attribute materialized by
    /// [`XmlOptions::keep_attributes`](crate::XmlOptions): finds the
    /// `@attrs` child and within it the `@name` element, returning its
    /// text value (`Some("")` for an empty or bare attribute, `None`
    /// when absent).
    pub fn attribute(&self, name: &str) -> Option<&str> {
        let attrs = self
            .children()
            .iter()
            .find(|c| c.label() == Some("@attrs"))?;
        let entry = attrs
            .children()
            .iter()
            .find(|c| c.label().and_then(|l| l.strip_prefix('@')) == Some(name))?;
        match entry.children().first() {
            Some(UTree::Text(s)) => Some(s),
            _ => Some(""),
        }
    }
}

impl fmt::Display for UTree {
    /// Paper-style rendering: `root(a,a,b)`; text nodes as quoted strings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UTree::Text(s) => write!(f, "{s:?}"),
            UTree::Elem { label, children } => {
                write!(f, "{label}")?;
                if !children.is_empty() {
                    write!(f, "(")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{c}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_paper_style() {
        let t = UTree::elem(
            "root",
            vec![UTree::leaf("a"), UTree::leaf("a"), UTree::leaf("b")],
        );
        assert_eq!(t.to_string(), "root(a,a,b)");
        assert_eq!(t.size(), 4);
    }

    #[test]
    fn text_nodes() {
        let t = UTree::elem("TITLE", vec![UTree::text("Dune")]);
        assert_eq!(t.to_string(), "TITLE(\"Dune\")");
        assert!(t.children()[0].is_text());
        assert_eq!(t.label(), Some("TITLE"));
        assert_eq!(t.children()[0].label(), None);
    }
}
