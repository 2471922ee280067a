//! The [`TypedEvent`] trait and the [`typed_event!`] reflection macro.

use crate::class::AttributeDecl;
use crate::data::EventData;
use crate::error::EventError;
use crate::intern::AttrId;
use crate::value::{AttrValue, ValueKind};

/// A scalar type that can serve as an event attribute.
///
/// This is the bridge the [`typed_event!`](crate::typed_event) macro uses to map Rust field
/// types onto the event model's [`ValueKind`]s; it plays the role of the
/// paper's reflective inspection of accessor return types.
pub trait AttrScalar: Sized {
    /// The attribute kind this Rust type maps to.
    const KIND: ValueKind;

    /// Extracts the attribute value (cloning where needed).
    fn to_attr_value(&self) -> AttrValue;

    /// Rebuilds a field value from an attribute value — the inverse of
    /// [`to_attr_value`](AttrScalar::to_attr_value). `None` when the value
    /// cannot be this type: another kind, or an integer outside the type's
    /// range. A float field also takes an `Int` value.
    fn from_attr_value(value: &AttrValue) -> Option<Self>;

    /// Whether meta-data carries this value unchanged: `false` for a NaN
    /// or infinite float, which [`Envelope::encode`](crate::Envelope::encode)
    /// refuses.
    fn is_finite(&self) -> bool {
        true
    }
}

macro_rules! impl_attr_scalar_int {
    ($($ty:ty),*) => {
        $(
            impl AttrScalar for $ty {
                const KIND: ValueKind = ValueKind::Int;
                fn to_attr_value(&self) -> AttrValue {
                    AttrValue::Int(i64::from(*self))
                }
                fn from_attr_value(value: &AttrValue) -> Option<Self> {
                    match value {
                        AttrValue::Int(i) => <$ty>::try_from(*i).ok(),
                        _ => None,
                    }
                }
            }
        )*
    };
}

impl_attr_scalar_int!(i64, i32, u32, u16);

macro_rules! impl_attr_scalar_float {
    ($($ty:ty),*) => {
        $(
            impl AttrScalar for $ty {
                const KIND: ValueKind = ValueKind::Float;
                fn to_attr_value(&self) -> AttrValue {
                    AttrValue::from(*self)
                }
                fn from_attr_value(value: &AttrValue) -> Option<Self> {
                    // Through f64 (an `f32` field narrows it), as a JSON
                    // number would.
                    value.as_f64().map(|f| f as $ty)
                }
                fn is_finite(&self) -> bool {
                    <$ty>::is_finite(*self)
                }
            }
        )*
    };
}

impl_attr_scalar_float!(f64, f32);

impl AttrScalar for bool {
    const KIND: ValueKind = ValueKind::Bool;
    fn to_attr_value(&self) -> AttrValue {
        AttrValue::Bool(*self)
    }
    fn from_attr_value(value: &AttrValue) -> Option<Self> {
        value.as_bool()
    }
}

impl AttrScalar for String {
    const KIND: ValueKind = ValueKind::Str;
    fn to_attr_value(&self) -> AttrValue {
        AttrValue::Str(self.clone())
    }
    fn from_attr_value(value: &AttrValue) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

/// A field type usable in a [`typed_event!`](crate::typed_event) declaration: either a scalar
/// attribute or an *optional* one.
///
/// `Option<T>` fields model events that may lack an attribute — like the
/// paper's `e1' = (symbol, "Foo") (price, 10.0)` missing `volume`
/// (Example 3). A `None` field is simply absent from the extracted
/// meta-data, so `(attr, ∃)` filters select exactly the events that carry
/// it, and an absent slot reads back as `None`.
pub trait AttrField: Sized {
    /// The attribute kind this field maps to.
    const KIND: ValueKind;

    /// Appends the attribute to the meta-data, if present.
    fn append_to(&self, name: &str, data: &mut EventData);

    /// Rebuilds the field from its meta-data slot — the inverse of
    /// [`append_to`](AttrField::append_to). `None` when the slot cannot be
    /// this field: a required attribute is absent, or
    /// [`AttrScalar::from_attr_value`] refuses the value.
    fn from_slot(slot: Option<&AttrValue>) -> Option<Self>;

    /// Whether meta-data carries the field unchanged (see
    /// [`AttrScalar::is_finite`]); an absent optional value is.
    fn is_finite(&self) -> bool;
}

impl<T: AttrScalar> AttrField for T {
    const KIND: ValueKind = T::KIND;

    fn append_to(&self, name: &str, data: &mut EventData) {
        data.insert_id(AttrId::intern(name), self.to_attr_value());
    }

    fn from_slot(slot: Option<&AttrValue>) -> Option<Self> {
        T::from_attr_value(slot?)
    }

    fn is_finite(&self) -> bool {
        AttrScalar::is_finite(self)
    }
}

impl<T: AttrScalar> AttrField for Option<T> {
    const KIND: ValueKind = T::KIND;

    fn append_to(&self, name: &str, data: &mut EventData) {
        if let Some(v) = self {
            v.append_to(name, data);
        }
    }

    fn from_slot(slot: Option<&AttrValue>) -> Option<Self> {
        match slot {
            None => Some(None),
            Some(value) => T::from_attr_value(value).map(Some),
        }
    }

    fn is_finite(&self) -> bool {
        self.as_ref().is_none_or(AttrScalar::is_finite)
    }
}

/// Reads field `attr` of class `class` from meta-data: what
/// [`typed_event!`](crate::typed_event)'s `from_meta` runs per field.
#[doc(hidden)]
pub fn read_field<F: AttrField>(
    meta: &EventData,
    class: &'static str,
    attr: &'static str,
) -> Result<F, EventError> {
    let slot = meta.get(attr);
    F::from_slot(slot).ok_or_else(|| EventError::AttrDecode {
        class,
        attr,
        found: slot.cloned(),
    })
}

/// An application-defined event type.
///
/// Implementations are normally derived with the [`typed_event!`](crate::typed_event) macro,
/// which mirrors the paper's convention (Section 3.4): "for each attribute
/// (used for filtering), the type offers an access method (used for
/// expressing filters)". The event system uses this trait to infer the
/// low-level meta-data representation — the covering event — from the
/// high-level typed view, and to rebuild the typed view from it at the
/// subscriber, without exposing the type's representation to brokers.
pub trait TypedEvent: Sized + Send + Sync + 'static {
    /// The event class name, e.g. `"Stock"`.
    const CLASS_NAME: &'static str;

    /// The attribute schema contributed by this type, ordered from most
    /// general to least general. Attributes inherited from
    /// [`parent_class`](TypedEvent::parent_class) may be repeated here with
    /// the same kind; the registry deduplicates them.
    fn attribute_decls() -> Vec<AttributeDecl>;

    /// Name of the parent event class, if this type extends one.
    fn parent_class() -> Option<&'static str> {
        None
    }

    /// Extracts the flat meta-data used for broker-side filtering — the
    /// paper's event transformation `e → e'` (Proposition 2).
    fn extract(&self) -> EventData;

    /// Rebuilds the object from meta-data — the inverse of
    /// [`extract`](TypedEvent::extract). Only this type's own attributes
    /// are read, so the meta-data of a subtype event rebuilds its
    /// supertype view.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::AttrDecode`] for the first field whose slot is
    /// absent (unless the field is an `Option`), of another kind, or an
    /// integer outside the field type's range.
    fn from_meta(meta: &EventData) -> Result<Self, EventError>;

    /// The first attribute whose value meta-data cannot carry unchanged —
    /// a NaN or infinite float — if any.
    fn non_finite_attr(&self) -> Option<&'static str>;
}

/// Declares an event type: a struct with private fields, getters, a `new`
/// constructor, and a derived [`TypedEvent`] implementation.
///
/// This macro is the Rust substitute for the paper's runtime reflection over
/// `get`-prefixed accessors: from a single declaration it derives the event
/// class name, the attribute schema (fields in declaration order = most
/// general first), the meta-data extraction, and its inverse. Every field
/// is an attribute, so the meta-data is the whole object: it travels as
/// meta-data alone and the subscriber rebuilds it field by field. The
/// struct also derives serde's `Serialize` / `Deserialize`, for
/// applications that store or log events; the event path does not use them.
///
/// # Examples
///
/// ```
/// use layercake_event::{typed_event, TypedEvent};
///
/// typed_event! {
///     /// A stock quote (paper Example 4).
///     pub struct Stock: "Stock" {
///         symbol: String,
///         price: f64,
///     }
/// }
///
/// typed_event! {
///     /// A subtype carrying an extra attribute.
///     pub struct TechStock: "TechStock" extends Stock {
///         symbol: String,
///         price: f64,
///         sector: String,
///     }
/// }
///
/// let s = Stock::new("Foo".to_owned(), 9.0);
/// assert_eq!(s.symbol(), "Foo");
/// assert_eq!(Stock::CLASS_NAME, "Stock");
/// assert_eq!(TechStock::parent_class(), Some("Stock"));
///
/// // A subtype's meta-data rebuilds its supertype view.
/// let t = TechStock::new("Neo".to_owned(), 42.0, "ai".to_owned());
/// assert_eq!(Stock::from_meta(&t.extract()).unwrap(), Stock::new("Neo".to_owned(), 42.0));
/// ```
#[macro_export]
macro_rules! typed_event {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident : $class:literal $(extends $parent:ty)? {
            $( $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            PartialEq,
            $crate::__private::serde::Serialize,
            $crate::__private::serde::Deserialize,
        )]
        #[serde(crate = "layercake_event::__private::serde")]
        $vis struct $name {
            $( $field: $fty, )*
        }

        impl $name {
            /// Creates a new event instance.
            #[must_use]
            // One argument per field, however many fields the event has.
            #[allow(clippy::too_many_arguments)]
            $vis fn new($( $field: $fty ),*) -> Self {
                Self { $( $field ),* }
            }

            $(
                /// Accessor for the correspondingly named attribute.
                #[must_use]
                $vis fn $field(&self) -> &$fty {
                    &self.$field
                }
            )*
        }

        impl $crate::TypedEvent for $name {
            const CLASS_NAME: &'static str = $class;

            fn attribute_decls() -> ::std::vec::Vec<$crate::AttributeDecl> {
                vec![
                    $(
                        $crate::AttributeDecl::new(
                            stringify!($field),
                            <$fty as $crate::AttrField>::KIND,
                        ),
                    )*
                ]
            }

            fn parent_class() -> ::std::option::Option<&'static str> {
                $crate::typed_event!(@parent $($parent)?)
            }

            fn extract(&self) -> $crate::EventData {
                let mut data = $crate::EventData::with_capacity(
                    0usize $( + { let _ = stringify!($field); 1 } )*
                );
                $(
                    $crate::AttrField::append_to(
                        &self.$field,
                        stringify!($field),
                        &mut data,
                    );
                )*
                data
            }

            fn from_meta(
                meta: &$crate::EventData,
            ) -> ::std::result::Result<Self, $crate::EventError> {
                ::std::result::Result::Ok(Self {
                    $( $field: $crate::__private::read_field(meta, $class, stringify!($field))?, )*
                })
            }

            fn non_finite_attr(&self) -> ::std::option::Option<&'static str> {
                $(
                    if !$crate::AttrField::is_finite(&self.$field) {
                        return ::std::option::Option::Some(stringify!($field));
                    }
                )*
                ::std::option::Option::None
            }
        }
    };

    (@parent) => { ::std::option::Option::None };
    (@parent $parent:ty) => {
        ::std::option::Option::Some(<$parent as $crate::TypedEvent>::CLASS_NAME)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TypeRegistry;

    typed_event! {
        /// Paper Example 4.
        pub struct Stock: "Stock" {
            symbol: String,
            price: f64,
        }
    }

    typed_event! {
        struct Auction: "Auction" {
            product: String,
            kind: String,
            capacity: i64,
            price: f64,
        }
    }

    typed_event! {
        pub struct TechStock: "TechStock" extends Stock {
            symbol: String,
            price: f64,
            sector: String,
        }
    }

    #[test]
    fn class_name_and_schema() {
        assert_eq!(Stock::CLASS_NAME, "Stock");
        let decls = Stock::attribute_decls();
        assert_eq!(decls.len(), 2);
        assert_eq!(decls[0].name(), "symbol");
        assert_eq!(decls[0].kind(), ValueKind::Str);
        assert_eq!(decls[1].kind(), ValueKind::Float);
        assert_eq!(Stock::parent_class(), None);
        assert_eq!(TechStock::parent_class(), Some("Stock"));
    }

    #[test]
    fn extraction_follows_declaration_order() {
        let s = Stock::new("Foo".to_owned(), 9.0);
        let meta = s.extract();
        assert_eq!(meta.to_string(), "(symbol, \"Foo\") (price, 9)");
    }

    #[test]
    fn getters_and_constructor() {
        let a = Auction::new("Vehicle".to_owned(), "Car".to_owned(), 2000, 10_000.0);
        assert_eq!(a.product(), "Vehicle");
        assert_eq!(a.kind(), "Car");
        assert_eq!(*a.capacity(), 2000);
        assert_eq!(*a.price(), 10_000.0);
        let t = TechStock::new("N".to_owned(), 1.0, "ai".to_owned());
        assert_eq!(t.symbol(), "N");
        assert_eq!(*t.price(), 1.0);
        assert_eq!(t.sector(), "ai");
    }

    #[test]
    fn registry_integration_with_inheritance() {
        let mut r = TypeRegistry::new();
        let stock = r.register_event::<Stock>().unwrap();
        let tech = r.register_event::<TechStock>().unwrap();
        assert!(r.is_subtype(tech, stock));
        // Inherited attributes deduplicated, own attribute appended.
        assert_eq!(r.class(tech).unwrap().arity(), 3);
        assert_eq!(r.class(tech).unwrap().attr_index("sector"), Some(2));
    }

    #[test]
    fn serde_round_trip_preserves_encapsulation() {
        let s = Stock::new("Bar".to_owned(), 15.0);
        let bytes = serde_json::to_vec(&s).unwrap();
        let back: Stock = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn subtype_payload_decodes_into_supertype_view() {
        // Polymorphic delivery: a subscriber typed at `Stock` can decode a
        // `TechStock` payload — the extra attribute is simply ignored.
        let t = TechStock::new("Neo".to_owned(), 42.0, "ai".to_owned());
        let bytes = serde_json::to_vec(&t).unwrap();
        let as_stock: Stock = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(as_stock.symbol(), "Neo");
        assert_eq!(*as_stock.price(), 42.0);
    }

    #[test]
    fn from_meta_inverts_extract() {
        let s = Stock::new("Bar".to_owned(), 15.0);
        assert_eq!(Stock::from_meta(&s.extract()).unwrap(), s);
        let a = Auction::new("Vehicle".to_owned(), "Car".to_owned(), -7, 0.5);
        assert_eq!(Auction::from_meta(&a.extract()).unwrap(), a);
    }

    #[test]
    fn subtype_meta_rebuilds_supertype_view() {
        // Polymorphic delivery: a subscriber typed at `Stock` rebuilds a
        // `TechStock` event — the extra attribute is simply not read.
        let t = TechStock::new("Neo".to_owned(), 42.0, "ai".to_owned());
        let as_stock = Stock::from_meta(&t.extract()).unwrap();
        assert_eq!(as_stock.symbol(), "Neo");
        assert_eq!(*as_stock.price(), 42.0);
        // The other way round the subtype's own attribute is missing.
        let err = TechStock::from_meta(&as_stock.extract()).unwrap_err();
        assert_eq!(
            err,
            crate::EventError::AttrDecode {
                class: "TechStock",
                attr: "sector",
                found: None
            }
        );
    }

    typed_event! {
        /// Optional attributes: `volume` may be absent (paper Example 3).
        pub struct Trade: "Trade" {
            symbol: String,
            price: f64,
            volume: Option<i64>,
        }
    }

    #[test]
    fn optional_fields_extract_only_when_present() {
        let with = Trade::new("Foo".to_owned(), 10.0, Some(32_300));
        let meta = with.extract();
        assert_eq!(meta.len(), 3);
        assert_eq!(meta.get("volume"), Some(&AttrValue::Int(32_300)));

        let without = Trade::new("Foo".to_owned(), 10.0, None);
        let meta = without.extract();
        assert_eq!(meta.len(), 2);
        assert!(!meta.contains("volume"));
        // Schema still declares the attribute (so filters can reference it).
        assert_eq!(Trade::attribute_decls().len(), 3);
        assert_eq!(Trade::attribute_decls()[2].kind(), ValueKind::Int);
    }

    #[test]
    fn optional_fields_round_trip_through_serde() {
        for vol in [Some(5i64), None] {
            let t = Trade::new("X".to_owned(), 1.0, vol);
            let bytes = serde_json::to_vec(&t).unwrap();
            let back: Trade = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(back, t);
        }
        // A payload missing the optional field entirely decodes to None —
        // this is what lets supertype views drop subtype attributes.
        let json = br#"{"symbol":"Y","price":2.0}"#;
        let t: Trade = serde_json::from_slice(json).unwrap();
        assert_eq!(t.symbol(), "Y");
        assert_eq!(*t.price(), 2.0);
        assert_eq!(*t.volume(), None);
    }

    #[test]
    fn optional_fields_round_trip_through_meta() {
        for vol in [Some(5i64), None] {
            let t = Trade::new("X".to_owned(), 1.0, vol);
            assert_eq!(Trade::from_meta(&t.extract()).unwrap(), t);
        }
        // Meta-data lacking the optional attribute rebuilds it as None —
        // this is what lets supertype views drop subtype attributes.
        let meta = crate::event_data! { "symbol" => "Y", "price" => 2.0 };
        let t = Trade::from_meta(&meta).unwrap();
        assert_eq!(t.symbol(), "Y");
        assert_eq!(*t.price(), 2.0);
        assert_eq!(*t.volume(), None);
        // A present optional attribute of the wrong kind is an error.
        let meta = crate::event_data! { "symbol" => "Y", "price" => 2.0, "volume" => "many" };
        assert!(Trade::from_meta(&meta).is_err());
    }

    #[test]
    fn attr_scalar_kinds() {
        assert_eq!(<i64 as AttrScalar>::KIND, ValueKind::Int);
        assert_eq!(<f32 as AttrScalar>::KIND, ValueKind::Float);
        assert_eq!(<String as AttrScalar>::KIND, ValueKind::Str);
        assert_eq!(<bool as AttrScalar>::KIND, ValueKind::Bool);
        assert_eq!(42i32.to_attr_value(), AttrValue::Int(42));
        assert_eq!(2.5f64.to_attr_value(), AttrValue::Float(2.5));
    }

    #[test]
    fn attr_scalar_reads_check_kind_and_range() {
        let big = AttrValue::Int(i64::from(i32::MAX) + 1);
        assert_eq!(i64::from_attr_value(&big), Some(i64::from(i32::MAX) + 1));
        assert_eq!(i32::from_attr_value(&big), None);
        assert_eq!(u16::from_attr_value(&AttrValue::Int(-1)), None);
        assert_eq!(u32::from_attr_value(&AttrValue::Int(7)), Some(7));
        assert_eq!(i64::from_attr_value(&AttrValue::Float(1.0)), None);
        // Floats take integers, as a JSON number would.
        assert_eq!(f64::from_attr_value(&AttrValue::Int(3)), Some(3.0));
        assert_eq!(f32::from_attr_value(&AttrValue::Float(0.5)), Some(0.5));
        assert_eq!(bool::from_attr_value(&AttrValue::Int(1)), None);
        assert_eq!(
            String::from_attr_value(&AttrValue::from("é")),
            Some("é".to_owned())
        );
        assert!(!AttrScalar::is_finite(&f32::NAN));
        assert!(!AttrScalar::is_finite(&f64::NEG_INFINITY));
        assert!(AttrScalar::is_finite(&-0.0f64));
        assert!(AttrField::is_finite(&None::<f64>));
    }
}
