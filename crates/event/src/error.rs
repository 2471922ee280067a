//! Error type for the event model.

use std::error::Error;
use std::fmt;

use crate::class::ClassId;
use crate::value::AttrValue;

/// Errors produced by the event model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventError {
    /// A class with this name is already registered with a different schema.
    DuplicateClass(String),
    /// The referenced class id is not registered.
    UnknownClass(ClassId),
    /// The referenced class name is not registered.
    UnknownClassName(String),
    /// A child class redeclares an inherited attribute with a different kind.
    ConflictingAttribute {
        /// Class being registered.
        class: String,
        /// Conflicting attribute name.
        attr: String,
    },
    /// A stage map is structurally invalid (see [`crate::StageMap::new`]).
    InvalidStageMap(String),
    /// A typed event could not be rebuilt from an envelope's meta-data.
    AttrDecode {
        /// Class of the requested type.
        class: &'static str,
        /// The attribute that did not fit its field.
        attr: &'static str,
        /// The attribute's value: `None` when a required attribute is
        /// absent, otherwise a value of another kind or an integer outside
        /// the field type's range.
        found: Option<AttrValue>,
    },
    /// A typed event holds a NaN or infinite float, which its meta-data
    /// cannot carry unchanged, so it is not published.
    NonFiniteAttr {
        /// Class of the event.
        class: &'static str,
        /// The float attribute.
        attr: &'static str,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::DuplicateClass(name) => {
                write!(
                    f,
                    "event class {name:?} already registered with a different schema"
                )
            }
            EventError::UnknownClass(id) => write!(f, "unknown event {id}"),
            EventError::UnknownClassName(name) => write!(f, "unknown event class {name:?}"),
            EventError::ConflictingAttribute { class, attr } => write!(
                f,
                "class {class:?} redeclares inherited attribute {attr:?} with a different kind"
            ),
            EventError::InvalidStageMap(msg) => write!(f, "invalid stage map: {msg}"),
            EventError::AttrDecode {
                class,
                attr,
                found: None,
            } => write!(f, "cannot rebuild {class:?}: attribute {attr:?} is absent"),
            EventError::AttrDecode {
                class,
                attr,
                found: Some(v),
            } => write!(
                f,
                "cannot rebuild {class:?}: attribute {attr:?} holds {v} ({}), which its field cannot take",
                v.kind()
            ),
            EventError::NonFiniteAttr { class, attr } => {
                write!(f, "{class:?} attribute {attr:?} is NaN or infinite")
            }
        }
    }
}

impl Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = EventError::UnknownClassName("Stock".to_owned());
        assert_eq!(e.to_string(), "unknown event class \"Stock\"");
        let e = EventError::ConflictingAttribute {
            class: "Sub".to_owned(),
            attr: "price".to_owned(),
        };
        assert!(e.to_string().contains("redeclares"));
        let e = EventError::AttrDecode {
            class: "Stock",
            attr: "price",
            found: None,
        };
        assert_eq!(
            e.to_string(),
            "cannot rebuild \"Stock\": attribute \"price\" is absent"
        );
        let e = EventError::AttrDecode {
            class: "Stock",
            attr: "price",
            found: Some(AttrValue::from("x")),
        };
        assert!(e.to_string().contains("(str)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<EventError>();
    }
}
