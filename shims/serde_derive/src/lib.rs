//! Offline stand-in for `serde_derive`, written against the bare
//! `proc_macro` API (no syn/quote — the container has no crates.io access).
//!
//! Supports exactly the shapes this repo derives on:
//! - structs with named fields        → JSON object
//! - tuple structs with one field     → the inner value (serde newtype rule)
//! - tuple structs with many fields   → JSON array
//! - unit structs                     → `null`
//! - enums whose variants are unit    → the variant name as a JSON string
//!
//! Anything else (generics, data-carrying variants) produces a
//! `compile_error!` naming the unsupported shape, so a future change fails
//! loudly instead of serializing garbage.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(msg) => error(&msg),
    }
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

enum Shape {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
    UnitEnum(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

/// Walk the item's tokens: skip attributes and visibility, find
/// `struct`/`enum`, the type name, then the body group.
fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut kind = None;
    let mut name = None;

    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 2; // `#` + bracketed attribute group
            }
            TokenTree::Ident(id) if *id.to_string() == *"pub" => {
                i += 1;
                // `pub(crate)` and friends carry a parenthesized group.
                if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if *id.to_string() == *"struct" || *id.to_string() == *"enum" => {
                kind = Some(id.to_string());
                i += 1;
                if let Some(TokenTree::Ident(n)) = tokens.get(i) {
                    name = Some(n.to_string());
                    i += 1;
                } else {
                    return Err("serde shim derive: expected type name".into());
                }
                break;
            }
            _ => i += 1,
        }
    }

    let kind = kind.ok_or("serde shim derive: no struct/enum keyword found")?;
    let name = name.unwrap();

    // Generics are not needed by this repo and not supported by the shim.
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generic type `{name}` is not supported"
        ));
    }

    let shape = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "enum" {
                Shape::UnitEnum(parse_unit_variants(g.stream(), &name)?)
            } else {
                Shape::Named(parse_named_fields(g.stream()))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(count_tuple_fields(g.stream()))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
        None if kind == "struct" => Shape::Unit,
        _ => return Err(format!("serde shim derive: unsupported body for `{name}`")),
    };

    Ok(Item { name, shape })
}

/// Field names of a braced struct body. Skips attributes and visibility;
/// the field name is the ident right before a top-level `:`; the type is
/// skipped up to the next comma at angle-bracket depth 0 (parens/brackets
/// are atomic `Group`s in proc_macro, so only `<`/`>` need depth tracking).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes.
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        // Skip visibility.
        if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if *id.to_string() == *"pub") {
            i += 1;
            if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let Some(TokenTree::Ident(field)) = tokens.get(i) else {
            break;
        };
        fields.push(field.to_string());
        i += 1;
        // Expect `:`, then skip the type to the next top-level comma.
        debug_assert!(
            matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':')
        );
        i += 1;
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Count fields of a tuple-struct body: top-level commas + 1 (ignoring a
/// trailing comma).
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut angle_depth = 0i32;
    let mut fields = 1;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 && idx + 1 < tokens.len() => {
                fields += 1;
            }
            _ => {}
        }
    }
    fields
}

/// Variant names of a unit-only enum; errors on data-carrying variants.
fn parse_unit_variants(body: TokenStream, enum_name: &str) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let Some(TokenTree::Ident(v)) = tokens.get(i) else {
            break;
        };
        variants.push(v.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "serde shim derive: enum `{enum_name}` variant `{}` carries data; \
                     only unit variants are supported",
                    variants.last().unwrap()
                ));
            }
            // Explicit discriminant: `Name = expr,` — skip to the comma.
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                while i < tokens.len()
                    && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',')
                {
                    i += 1;
                }
                i += 1;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => break,
            other => {
                return Err(format!(
                    "serde shim derive: unexpected token {other:?} in enum `{enum_name}`"
                ));
            }
        }
    }
    Ok(variants)
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut b = String::from("out.push('{');\n");
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    b.push_str("out.push(',');\n");
                }
                b.push_str(&format!(
                    "out.push_str(\"\\\"{f}\\\":\");\nserde::Serialize::json(&self.{f}, out);\n"
                ));
            }
            b.push_str("out.push('}');");
            b
        }
        Shape::Tuple(1) => "serde::Serialize::json(&self.0, out);".to_string(),
        Shape::Tuple(n) => {
            let mut b = String::from("out.push('[');\n");
            for i in 0..*n {
                if i > 0 {
                    b.push_str("out.push(',');\n");
                }
                b.push_str(&format!("serde::Serialize::json(&self.{i}, out);\n"));
            }
            b.push_str("out.push(']');");
            b
        }
        Shape::Unit => "out.push_str(\"null\");".to_string(),
        Shape::UnitEnum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\",\n"))
                .collect();
            format!(
                "let s = match self {{\n{arms}}};\nout.push('\"');\nout.push_str(s);\nout.push('\"');"
            )
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn json(&self, out: &mut String) {{\n{body}\n}}\n}}"
    )
}
