//! Error type of the typed event-system facade.

use std::error::Error;
use std::fmt;

use layercake_event::EventError;
use layercake_filter::FilterError;

/// Errors produced by the typed event-system API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An event-model error (registration, encoding, decoding).
    Event(EventError),
    /// A filter-language error (validation, standardization).
    Filter(FilterError),
    /// The event type was not registered with the builder.
    NotRegistered(String),
    /// The event class was never advertised, so brokers have no stage map
    /// for it; call [`crate::EventSystem::advertise`] first.
    NotAdvertised(String),
    /// A subscription filter's class is not the subscribed event type or a
    /// subtype of it, so delivered events could not rebuild the requested
    /// type.
    ClassMismatch {
        /// The type the subscriber asked for.
        subscribed: String,
        /// The class named by the filter.
        filter_class: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Event(e) => write!(f, "{e}"),
            CoreError::Filter(e) => write!(f, "{e}"),
            CoreError::NotRegistered(name) => {
                write!(f, "event type {name:?} was not registered with the builder")
            }
            CoreError::NotAdvertised(name) => {
                write!(f, "event class {name:?} has not been advertised")
            }
            CoreError::ClassMismatch {
                subscribed,
                filter_class,
            } => write!(
                f,
                "filter class {filter_class:?} is not a subtype of subscribed type {subscribed:?}"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Event(e) => Some(e),
            CoreError::Filter(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EventError> for CoreError {
    fn from(e: EventError) -> Self {
        CoreError::Event(e)
    }
}

impl From<FilterError> for CoreError {
    fn from(e: FilterError) -> Self {
        CoreError::Filter(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::NotAdvertised("Stock".to_owned());
        assert_eq!(
            e.to_string(),
            "event class \"Stock\" has not been advertised"
        );
        assert!(e.source().is_none());
        let e = CoreError::from(EventError::UnknownClassName("X".to_owned()));
        assert!(e.source().is_some());
        let e = CoreError::ClassMismatch {
            subscribed: "Stock".into(),
            filter_class: "Auction".into(),
        };
        assert!(e.to_string().contains("subtype"));
    }

    #[test]
    fn send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<CoreError>();
    }
}
