//! Workspace-local stand-in for `serde_derive`.
//!
//! Dependency-free derive macros for the vendored `serde` stand-in's
//! value model (`syn`/`quote` are unavailable offline, so the item is
//! parsed by hand from the raw `TokenStream`). Supports exactly the
//! shapes this workspace derives on: non-generic named structs, tuple
//! structs, unit structs, and enums whose variants are units or carry
//! unnamed fields. Unsupported shapes panic at compile time with a
//! clear message rather than generating wrong code.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of a deriving item.
enum Shape {
    /// `struct S { a: T, b: U }` — field names in declaration order.
    NamedStruct(Vec<String>),
    /// `struct S(T, U);` — field count.
    TupleStruct(usize),
    /// `struct S;`
    UnitStruct,
    /// `enum E { A, B(T), C(T, U) }` — variant names and arities.
    Enum(Vec<(String, usize)>),
}

/// Derives `serde::Serialize` (value-model edition).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    gen_serialize(&name, &shape)
        .parse()
        .expect("serde_derive generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` (value-model edition).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    gen_deserialize(&name, &shape)
        .parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn is_punct(tok: &TokenTree, c: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(tok: &TokenTree, s: &str) -> bool {
    matches!(tok, TokenTree::Ident(i) if i.to_string() == s)
}

/// Advances past any leading `#[...]` / `#![...]` attributes.
fn skip_attributes(toks: &[TokenTree], mut i: usize) -> usize {
    while i < toks.len() && is_punct(&toks[i], '#') {
        i += 1;
        if i < toks.len() && is_punct(&toks[i], '!') {
            i += 1;
        }
        if i < toks.len()
            && matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket)
        {
            i += 1;
        }
    }
    i
}

/// Advances past `pub`, `pub(crate)`, `pub(in ...)`, etc.
fn skip_visibility(toks: &[TokenTree], mut i: usize) -> usize {
    if i < toks.len() && is_ident(&toks[i], "pub") {
        i += 1;
        if i < toks.len()
            && matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

fn parse_item(input: TokenStream) -> (String, Shape) {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attributes(&toks, 0);
    i = skip_visibility(&toks, i);

    let keyword = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found `{other}`"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, found `{other}`"),
    };
    i += 1;
    if i < toks.len() && is_punct(&toks[i], '<') {
        panic!("serde_derive: generic type `{name}` is not supported by the vendored stand-in");
    }

    match keyword.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                (name, Shape::NamedStruct(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                (name, Shape::TupleStruct(count_tuple_fields(g.stream())))
            }
            Some(t) if is_punct(t, ';') => (name, Shape::UnitStruct),
            other => panic!("serde_derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                (name, Shape::Enum(parse_variants(g.stream())))
            }
            other => panic!("serde_derive: unsupported enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde_derive: cannot derive for `{other} {name}`"),
    }
}

/// Extracts field names from `{ a: T, b: U, ... }`, skipping types
/// (tracking `<...>` depth so generic-argument commas don't split).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attributes(&toks, i);
        i = skip_visibility(&toks, i);
        if i >= toks.len() {
            break;
        }
        let field = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, found `{other}`"),
        };
        i += 1;
        assert!(
            i < toks.len() && is_punct(&toks[i], ':'),
            "serde_derive: expected `:` after field `{field}`"
        );
        i += 1;
        let mut angle_depth = 0i32;
        while i < toks.len() {
            if is_punct(&toks[i], '<') {
                angle_depth += 1;
            } else if is_punct(&toks[i], '>') {
                angle_depth -= 1;
            } else if is_punct(&toks[i], ',') && angle_depth == 0 {
                i += 1;
                break;
            }
            i += 1;
        }
        fields.push(field);
    }
    fields
}

/// Counts the fields of a tuple struct / tuple variant body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut angle_depth = 0i32;
    let mut arity = 0usize;
    let mut pending = false;
    for tok in body {
        if is_punct(&tok, '<') {
            angle_depth += 1;
            pending = true;
        } else if is_punct(&tok, '>') {
            angle_depth -= 1;
            pending = true;
        } else if is_punct(&tok, ',') && angle_depth == 0 {
            arity += 1;
            pending = false;
        } else {
            pending = true;
        }
    }
    if pending {
        arity += 1;
    }
    arity
}

/// Extracts `(variant name, arity)` pairs from an enum body, skipping
/// attributes (e.g. `#[default]`) and explicit discriminants.
fn parse_variants(body: TokenStream) -> Vec<(String, usize)> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attributes(&toks, i);
        if i >= toks.len() {
            break;
        }
        let vname = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, found `{other}`"),
        };
        i += 1;
        let mut arity = 0usize;
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                arity = count_tuple_fields(g.stream());
                i += 1;
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("serde_derive: struct-like variant `{vname}` is not supported");
            }
            _ => {}
        }
        while i < toks.len() && !is_punct(&toks[i], ',') {
            i += 1; // skip explicit discriminant, if any
        }
        if i < toks.len() {
            i += 1; // the comma
        }
        variants.push((vname, arity));
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::UnitStruct => "::serde::Value::Null".to_owned(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, arity)| match arity {
                    0 => format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
                    ),
                    1 => format!(
                        "{name}::{v}(f0) => ::serde::Value::Object(vec![(::std::string::String::from(\"{v}\"), ::serde::Serialize::to_value(f0))]),"
                    ),
                    n => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(vec![(::std::string::String::from(\"{v}\"), ::serde::Value::Array(vec![{}]))]),",
                            binds.join(", "),
                            items.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
           fn to_value(&self) -> ::serde::Value {{ {body} }} \
         }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::Deserialize::from_value(value.field(\"{f}\")?)?,"))
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(" ")
            )
        }
        Shape::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))")
        }
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "{{ let items = value.as_array_of_len({n})?; \
                   ::std::result::Result::Ok({name}({})) }}",
                items.join(", ")
            )
        }
        Shape::UnitStruct => {
            format!("{{ let _ = value; ::std::result::Result::Ok({name}) }}")
        }
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, arity)| *arity == 0)
                .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let payload_arms: Vec<String> = variants
                .iter()
                .filter(|(_, arity)| *arity > 0)
                .map(|(v, arity)| {
                    if *arity == 1 {
                        format!(
                            "\"{v}\" => ::std::result::Result::Ok({name}::{v}(::serde::Deserialize::from_value(payload)?)),"
                        )
                    } else {
                        let items: Vec<String> = (0..*arity)
                            .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                            .collect();
                        format!(
                            "\"{v}\" => {{ let items = payload.as_array_of_len({arity})?; \
                               ::std::result::Result::Ok({name}::{v}({})) }}",
                            items.join(", ")
                        )
                    }
                })
                .collect();
            let payload_bind = if payload_arms.is_empty() {
                "_payload"
            } else {
                "payload"
            };
            format!(
                "match value {{ \
                   ::serde::Value::Str(s) => match s.as_str() {{ \
                     {unit} \
                     other => ::std::result::Result::Err(::serde::Error::custom(format!(\
                       \"unknown variant `{{other}}` for {name}\"))), \
                   }}, \
                   other => {{ \
                     let (tag, {payload_bind}) = other.as_enum_variant()?; \
                     match tag {{ \
                       {tagged} \
                       other => ::std::result::Result::Err(::serde::Error::custom(format!(\
                         \"unknown variant `{{other}}` for {name}\"))), \
                     }} \
                   }} \
                 }}",
                unit = unit_arms.join(" "),
                tagged = payload_arms.join(" "),
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
           fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
         }}"
    )
}
