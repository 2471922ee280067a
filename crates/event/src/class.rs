//! Event classes: application-defined event types with attribute schemas.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::intern::AttrId;
use crate::value::ValueKind;

/// Identifier of a registered event class within a [`crate::TypeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Declaration of one event attribute: its name and value kind.
///
/// The *position* of a declaration in the class schema encodes its
/// generality rank (paper Section 4.1): index 0 is the most general
/// attribute (dividing the event space into few large sub-categories),
/// the last index is the least general.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeDecl {
    name: String,
    kind: ValueKind,
}

impl AttributeDecl {
    /// Creates a declaration.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: ValueKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Attribute name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute value kind.
    #[must_use]
    pub fn kind(&self) -> ValueKind {
        self.kind
    }
}

/// A registered event class: name, optional parent class, and attribute
/// schema ordered from most general to least general.
///
/// Event classes are the paper's "application-defined abstract types";
/// filters may constrain the class itself (type-based filtering, including
/// subtypes) and any schema attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventClass {
    id: ClassId,
    name: String,
    parent: Option<ClassId>,
    attrs: Vec<AttributeDecl>,
    attr_ids: Vec<AttrId>,
}

impl EventClass {
    pub(crate) fn new(
        id: ClassId,
        name: String,
        parent: Option<ClassId>,
        attrs: Vec<AttributeDecl>,
    ) -> Self {
        let attr_ids = attrs.iter().map(|a| AttrId::intern(a.name())).collect();
        Self {
            id,
            name,
            parent,
            attrs,
            attr_ids,
        }
    }

    /// The class identifier.
    #[must_use]
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// The class name, e.g. `"Stock"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The direct parent class, if any.
    #[must_use]
    pub fn parent(&self) -> Option<ClassId> {
        self.parent
    }

    /// The full attribute schema (inherited attributes first), from most
    /// general to least general.
    #[must_use]
    pub fn attributes(&self) -> &[AttributeDecl] {
        &self.attrs
    }

    /// The interned ids of the schema attributes, parallel to
    /// [`attributes`](EventClass::attributes). Registration interns every
    /// schema name, so the data plane can always resolve schema attributes
    /// by id.
    #[must_use]
    pub fn attr_ids(&self) -> &[AttrId] {
        &self.attr_ids
    }

    /// Looks up the schema index (generality rank) of an attribute.
    #[must_use]
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name() == name)
    }

    /// [`attr_index`](EventClass::attr_index) by interned id: the form the
    /// filter crate uses, since a constraint carries its attribute's id.
    #[must_use]
    pub fn attr_index_of(&self, id: AttrId) -> Option<usize> {
        self.attr_ids.iter().position(|a| *a == id)
    }

    /// Looks up an attribute declaration by name.
    #[must_use]
    pub fn attr(&self, name: &str) -> Option<&AttributeDecl> {
        self.attrs.iter().find(|a| a.name() == name)
    }

    /// Number of attributes in the schema.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }
}

impl fmt::Display for EventClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", a.name(), a.kind())?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock() -> EventClass {
        EventClass::new(
            ClassId(1),
            "Stock".to_owned(),
            None,
            vec![
                AttributeDecl::new("symbol", ValueKind::Str),
                AttributeDecl::new("price", ValueKind::Float),
            ],
        )
    }

    #[test]
    fn accessors() {
        let c = stock();
        assert_eq!(c.id(), ClassId(1));
        assert_eq!(c.name(), "Stock");
        assert_eq!(c.parent(), None);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.attr_index("price"), Some(1));
        assert_eq!(c.attr_index("volume"), None);
        assert_eq!(c.attr("symbol").unwrap().kind(), ValueKind::Str);
    }

    #[test]
    fn display() {
        assert_eq!(stock().to_string(), "Stock(symbol: str, price: float)");
    }

    #[test]
    fn class_id_display() {
        assert_eq!(ClassId(7).to_string(), "class#7");
    }
}
