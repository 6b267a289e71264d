//! `Serialize`/`Deserialize` impls for primitives and std containers.

use crate::{Deserialize, Error, Serialize, Value};

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::msg(format!("expected bool, got {}", v.kind())))
    }
}

macro_rules! unsigned_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| Error::msg(format!(
                        concat!("expected ", stringify!($t), ", got {}"), v.kind()
                    )))?;
                <$t>::try_from(raw).map_err(|_| Error::msg(format!(
                    concat!("value {} out of range for ", stringify!($t)), raw
                )))
            }
        }
    )*};
}
unsigned_impl!(u8, u16, u32, u64, usize);

macro_rules! signed_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = v
                    .as_i64()
                    .ok_or_else(|| Error::msg(format!(
                        concat!("expected ", stringify!($t), ", got {}"), v.kind()
                    )))?;
                <$t>::try_from(raw).map_err(|_| Error::msg(format!(
                    concat!("value {} out of range for ", stringify!($t)), raw
                )))
            }
        }
    )*};
}
signed_impl!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {}", v.kind())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // Exact: every f32 is representable as f64.
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {}", v.kind())))?
            as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::msg(format!("expected string, got {}", v.kind())))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg(format!("expected array, got {}", v.kind())))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Shared pointers serialize as the value they point to; like upstream,
/// only with the `rc` feature, since a deserialized `Arc` no longer shares.
#[cfg(feature = "rc")]
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

#[cfg(feature = "rc")]
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::msg(format!("expected 2-array, got {}", v.kind())))?;
        if items.len() != 2 {
            return Err(Error::msg(format!(
                "expected 2 elements, got {}",
                items.len()
            )));
        }
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}
