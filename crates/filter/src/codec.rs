//! Binary wire codec for the filter language.
//!
//! Filters cross the wire in every placement message (`Subscribe`,
//! `ReqInsert`, …), so they share the compact encoding of the event
//! model: varint integers, single tag bytes for predicate operators, and
//! attribute references through the per-connection dictionary — the
//! JSON form spells out each attribute name on every hop; here a name
//! crosses once per connection and is a one-byte id afterwards.

use layercake_event::{
    write_varint, AttrValue, BinCodec, ClassId, CodecError, DecodeDict, EncodeDict, WireReader,
};

use crate::filter::{Filter, FilterId};
use crate::predicate::{AttrFilter, Predicate};

impl BinCodec for FilterId {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, self.0);
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        Ok(FilterId(r.varint()?))
    }
}

impl BinCodec for Predicate {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        match self {
            Predicate::Eq(v) => {
                out.push(0);
                v.encode_bin(out, dict);
            }
            Predicate::Ne(v) => {
                out.push(1);
                v.encode_bin(out, dict);
            }
            Predicate::Lt(v) => {
                out.push(2);
                v.encode_bin(out, dict);
            }
            Predicate::Le(v) => {
                out.push(3);
                v.encode_bin(out, dict);
            }
            Predicate::Gt(v) => {
                out.push(4);
                v.encode_bin(out, dict);
            }
            Predicate::Ge(v) => {
                out.push(5);
                v.encode_bin(out, dict);
            }
            Predicate::In(vs) => {
                out.push(6);
                write_varint(out, vs.len() as u64);
                for v in vs {
                    v.encode_bin(out, dict);
                }
            }
            Predicate::Prefix(s) => {
                out.push(7);
                layercake_event::write_str(out, s);
            }
            Predicate::Contains(s) => {
                out.push(8);
                layercake_event::write_str(out, s);
            }
            Predicate::Exists => out.push(9),
            Predicate::Any => out.push(10),
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Predicate::Eq(AttrValue::decode_bin(r, dict)?),
            1 => Predicate::Ne(AttrValue::decode_bin(r, dict)?),
            2 => Predicate::Lt(AttrValue::decode_bin(r, dict)?),
            3 => Predicate::Le(AttrValue::decode_bin(r, dict)?),
            4 => Predicate::Gt(AttrValue::decode_bin(r, dict)?),
            5 => Predicate::Ge(AttrValue::decode_bin(r, dict)?),
            6 => {
                let n = r.count()?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(AttrValue::decode_bin(r, dict)?);
                }
                Predicate::In(vs)
            }
            7 => Predicate::Prefix(r.string()?.to_owned()),
            8 => Predicate::Contains(r.string()?.to_owned()),
            9 => Predicate::Exists,
            10 => Predicate::Any,
            t => return Err(CodecError::Tag(t)),
        })
    }
}

impl BinCodec for AttrFilter {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        dict.write_attr(out, self.id());
        self.predicate().encode_bin(out, dict);
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let id = dict.read_attr(r)?;
        let pred = Predicate::decode_bin(r, dict)?;
        Ok(AttrFilter::for_id(id, pred))
    }
}

impl BinCodec for Filter {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        match self.class() {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                c.encode_bin(out, dict);
            }
        }
        write_varint(out, self.constraints().len() as u64);
        for c in self.constraints() {
            c.encode_bin(out, dict);
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let class = match r.u8()? {
            0 => None,
            1 => Some(ClassId::decode_bin(r, dict)?),
            t => return Err(CodecError::Tag(t)),
        };
        let n = r.count()?;
        let mut filter = Filter::any().with_class(class);
        for _ in 0..n {
            filter = filter.with(AttrFilter::decode_bin(r, dict)?);
        }
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::DictMode;

    fn round<T: BinCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        v.encode_bin(&mut buf, &mut enc);
        let mut r = WireReader::new(&buf);
        let back = T::decode_bin(&mut r, &dec).unwrap();
        assert_eq!(&back, v);
        r.expect_end().unwrap();
    }

    #[test]
    fn predicates_round_trip() {
        for p in [
            Predicate::Eq(AttrValue::Int(5)),
            Predicate::Ne(AttrValue::Str("x".into())),
            Predicate::Lt(AttrValue::Float(1.5)),
            Predicate::Le(AttrValue::Int(-9)),
            Predicate::Gt(AttrValue::Bool(false)),
            Predicate::Ge(AttrValue::Int(i64::MAX)),
            Predicate::In(vec![AttrValue::Int(1), AttrValue::Str("two".into())]),
            Predicate::Prefix("pre".into()),
            Predicate::Contains("mid".into()),
            Predicate::Exists,
            Predicate::Any,
        ] {
            round(&p);
        }
    }

    #[test]
    fn filters_round_trip_with_and_without_class() {
        round(&Filter::any());
        round(
            &Filter::for_class(ClassId(7))
                .eq("bin_symbol", "Foo")
                .lt("bin_price", 10.0)
                .in_set("bin_tier", [1i64, 2, 3])
                .wildcard("bin_any"),
        );
    }

    #[test]
    fn filters_round_trip_through_negotiated_dictionary() {
        let f = Filter::for_class(ClassId(1))
            .ge("bin_neg_level", 5i64)
            .exists("bin_neg_present");
        let mut enc = EncodeDict::new(DictMode::Negotiated);
        let mut buf = Vec::new();
        f.encode_bin(&mut buf, &mut enc);
        let mut update = Vec::new();
        assert_eq!(
            enc.write_update(&mut update),
            2,
            "both attribute names announced"
        );

        let mut dec = DecodeDict::new(DictMode::Negotiated);
        dec.apply_update(&update[1..]).unwrap();
        let mut r = WireReader::new(&buf);
        assert_eq!(Filter::decode_bin(&mut r, &dec).unwrap(), f);
    }

    #[test]
    fn truncated_filters_error_not_panic() {
        let f = Filter::for_class(ClassId(3)).eq("bin_trunc", 1i64);
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        f.encode_bin(&mut buf, &mut enc);
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(Filter::decode_bin(&mut r, &dec).is_err());
        }
    }

    #[test]
    fn unknown_predicate_tag_is_rejected() {
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&[99]);
        assert_eq!(
            Predicate::decode_bin(&mut r, &dec),
            Err(CodecError::Tag(99))
        );
    }
}
