//! Event shapes: what an envelope's meta-data looks like, without its
//! values.
//!
//! A shape is a class (id and name) plus the ordered `(attribute, kind)`
//! list of its meta-data — the part of a covering event that the class
//! declares once, at advertisement (paper Sections 3.4 and 4.1). The wire
//! codec sends a one-varint reference to the shape and then the values
//! alone, untagged and in shape order. An absent `Option` field yields a
//! different shape, so no presence bitmap is needed.
//!
//! Shapes are interned process-wide, like attribute names: [`ShapeId`]s
//! are dense, the id → shape direction is a lock-free [`SlotTable`], and
//! only interning a new shape takes the writer lock. A publisher looks a
//! shape up once per event body (a per-thread cache of recent shapes
//! answers first, without a lock), a decoder records the shape it read,
//! and every later hop re-encodes from that record.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use crate::class::ClassId;
use crate::codec::CodecError;
use crate::data::EventData;
use crate::intern::{AttrId, SlotTable};
use crate::value::ValueKind;

/// Dense identifier of an interned [`Shape`]: in an in-process
/// connection it is the shape's wire reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ShapeId(pub(crate) u32);

/// The class and ordered attribute kinds of one event's meta-data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) class: ClassId,
    pub(crate) class_name: &'static str,
    pub(crate) attrs: Box<[(AttrId, ValueKind)]>,
}

impl Shape {
    /// Whether `meta` of this class has exactly this shape.
    fn describes(&self, class: ClassId, class_name: &str, meta: &EventData) -> bool {
        self.class == class
            && self.class_name == class_name
            && self.attrs.len() == meta.len()
            && self
                .attrs
                .iter()
                .zip(meta.iter_ids())
                .all(|(&(id, kind), (attr, value))| id == attr && kind == value.kind())
    }

    /// Rejects a shape naming one attribute twice, so that a decoder can
    /// append each value it reads without looking for an earlier one.
    pub(crate) fn check(&self) -> Result<(), CodecError> {
        for (i, (id, _)) in self.attrs.iter().enumerate() {
            if self.attrs[..i].iter().any(|(seen, _)| seen == id) {
                return Err(CodecError::Invalid("attribute repeated in a shape"));
            }
        }
        Ok(())
    }
}

/// Id → shape.
static SHAPES: SlotTable<Shape> = SlotTable::new();

/// `(class, class name)` → the shapes of that class.
type ByClass = HashMap<(u32, &'static str), Vec<ShapeId>>;

/// The only direction that needs a lock. Writers also append to
/// [`SHAPES`] while holding it.
fn by_class() -> &'static RwLock<ByClass> {
    static BY_CLASS: OnceLock<RwLock<ByClass>> = OnceLock::new();
    BY_CLASS.get_or_init(|| RwLock::new(HashMap::new()))
}

/// How many recently used shapes each thread remembers.
const RECENT: usize = 4;

thread_local! {
    static RECENT_SHAPES: Cell<[Option<ShapeId>; RECENT]> = const { Cell::new([None; RECENT]) };
}

impl ShapeId {
    /// The shape of `meta` under this class, interned on first sight.
    pub(crate) fn of(class: ClassId, class_name: &'static str, meta: &EventData) -> ShapeId {
        let recent = RECENT_SHAPES.get();
        let hit = recent
            .iter()
            .flatten()
            .find(|id| id.shape().describes(class, class_name, meta));
        if let Some(&id) = hit {
            return id;
        }
        let known = by_class()
            .read()
            .expect("shape table poisoned")
            .get(&(class.0, class_name))
            .and_then(|ids| {
                ids.iter()
                    .find(|id| id.shape().describes(class, class_name, meta))
                    .copied()
            });
        let id = known.unwrap_or_else(|| {
            let attrs = meta.iter_ids().map(|(id, v)| (id, v.kind())).collect();
            ShapeId::intern(Shape {
                class,
                class_name,
                attrs,
            })
            .expect("meta-data holds each attribute once")
        });
        let mut recent = recent;
        recent.rotate_right(1);
        recent[0] = Some(id);
        RECENT_SHAPES.set(recent);
        id
    }

    /// Interns a shape, returning the id it already had if it had one.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] when the shape names an attribute twice.
    pub(crate) fn intern(shape: Shape) -> Result<ShapeId, CodecError> {
        shape.check()?;
        let mut guard = by_class().write().expect("shape table poisoned");
        let ids = guard.entry((shape.class.0, shape.class_name)).or_default();
        if let Some(&id) = ids.iter().find(|id| *id.shape() == shape) {
            return Ok(id);
        }
        // `u32::MAX` stays free: envelopes use it for "not looked up yet".
        let id = u32::try_from(SHAPES.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .map(ShapeId)
            .expect("shape ids fit below u32::MAX");
        SHAPES.push(shape);
        ids.push(id);
        Ok(id)
    }

    /// Resolves a shared-mode wire reference: the shape this process
    /// interned under that id, if any.
    pub(crate) fn resolve(raw: u64) -> Option<(ShapeId, &'static Shape)> {
        let idx = usize::try_from(raw).ok()?;
        SHAPES.get(idx).map(|shape| (ShapeId(idx as u32), shape))
    }

    /// The interned shape.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by [`ShapeId::intern`].
    pub(crate) fn shape(self) -> &'static Shape {
        SHAPES
            .get(self.0 as usize)
            .unwrap_or_else(|| panic!("ShapeId({}) was never interned", self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_data;

    #[test]
    fn one_id_per_class_and_attribute_kinds() {
        let a = event_data! { "shape_sym" => "A", "shape_px" => 1.5 };
        let b = event_data! { "shape_sym" => "B", "shape_px" => 2.5 };
        let id = ShapeId::of(ClassId(40), "ShapeTest", &a);
        assert_eq!(ShapeId::of(ClassId(40), "ShapeTest", &b), id);
        // Another kind, another order, a missing attribute, another class:
        // four more shapes.
        let others = [
            event_data! { "shape_sym" => "A", "shape_px" => 1_i64 },
            event_data! { "shape_px" => 1.5, "shape_sym" => "A" },
            event_data! { "shape_sym" => "A" },
        ];
        for meta in &others {
            assert_ne!(ShapeId::of(ClassId(40), "ShapeTest", meta), id);
        }
        assert_ne!(ShapeId::of(ClassId(41), "ShapeTest", &a), id);
        let shape = id.shape();
        assert_eq!(shape.class_name, "ShapeTest");
        assert_eq!(shape.attrs[1].1, ValueKind::Float);
        assert_eq!(ShapeId::resolve(u64::from(id.0)).unwrap().0, id);
        assert!(ShapeId::resolve(u64::MAX).is_none());
    }

    #[test]
    fn a_repeated_attribute_is_refused() {
        let x = AttrId::intern("shape_dup");
        let shape = Shape {
            class: ClassId(42),
            class_name: "ShapeDup",
            attrs: vec![(x, ValueKind::Int), (x, ValueKind::Str)].into(),
        };
        assert!(matches!(
            ShapeId::intern(shape),
            Err(CodecError::Invalid(_))
        ));
    }
}
