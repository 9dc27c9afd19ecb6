//! Offline stand-in for the `serde` crate.
//!
//! The workspace builds in a hermetic container with no crates.io access, so
//! external dependencies are replaced by minimal local shims (see
//! `shims/README.md`). This one provides exactly the surface the repo uses:
//! a `Serialize` trait that renders JSON into a `String` (consumed by the
//! `serde_json` shim's `to_string`) and its derive macro, re-exported from
//! `serde_derive`. Nothing in the repo deserializes through serde (the CRIU
//! wire format is hand-coded).
//!
//! It is NOT wire-compatible with real serde; it only has to agree with the
//! sibling `serde_json` shim, which is the sole consumer in this repo.

pub use serde_derive::Serialize;

/// JSON-oriented serialization. `json` must append a single valid JSON value.
pub trait Serialize {
    fn json(&self, out: &mut String);
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn json(&self, out: &mut String) {
                out.push_str(itoa_buf(*self as i128).as_str());
            }
        }
    )*};
}

// Integers comfortably fit i128 except u128; the repo never serializes u128.
int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

fn itoa_buf(v: i128) -> String {
    v.to_string()
}

impl Serialize for bool {
    fn json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for f64 {
    fn json(&self, out: &mut String) {
        if self.is_finite() {
            // Rust's Display prints the shortest round-trip form.
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl Serialize for f32 {
    fn json(&self, out: &mut String) {
        (*self as f64).json(out);
    }
}

impl Serialize for str {
    fn json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Serialize for String {
    fn json(&self, out: &mut String) {
        self.as_str().json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn json(&self, out: &mut String) {
        (**self).json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn json(&self, out: &mut String) {
        match self {
            Some(v) => v.json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn json(&self, out: &mut String) {
        self.as_slice().json(out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn json(&self, out: &mut String) {
        self.as_slice().json(out);
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn json(&self, out: &mut String) {
        // JSON object keyed by the key's own JSON rendering (strings render
        // quoted already; numeric keys get quoted to stay valid JSON).
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut key = String::new();
            k.json(&mut key);
            if key.starts_with('"') {
                out.push_str(&key);
            } else {
                out.push('"');
                out.push_str(&key);
                out.push('"');
            }
            out.push(':');
            v.json(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::Serialize;

    fn render<T: Serialize + ?Sized>(v: &T) -> String {
        let mut s = String::new();
        v.json(&mut s);
        s
    }

    #[test]
    fn primitives_render_as_json() {
        assert_eq!(render(&42u64), "42");
        assert_eq!(render(&-7i32), "-7");
        assert_eq!(render(&true), "true");
        assert_eq!(render(&1.5f64), "1.5");
        assert_eq!(render("a\"b"), "\"a\\\"b\"");
        assert_eq!(render(&vec![1u8, 2, 3]), "[1,2,3]");
        assert_eq!(render(&Option::<u32>::None), "null");
    }
}
