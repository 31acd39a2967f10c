//! Offline drop-in subset of `serde_derive`.
//!
//! Hand-rolled over `proc_macro::TokenStream` (no `syn`/`quote` in the
//! offline environment). Supports exactly the shapes this workspace
//! derives: non-generic named-field structs, tuple structs (newtypes are
//! transparent), and enums with unit / newtype / tuple / struct variants.
//! The only recognised field attribute is `#[serde(default)]`; anything
//! else inside `#[serde(...)]` is a hard error so silent misbehaviour is
//! impossible.
//!
//! The generated `serialize` writes straight into a `serde::Writer`
//! (a named struct as `w.key("field")` then the field, in declaration
//! order), and the generated `deserialize` reads from a `serde::Reader`,
//! matching each key as a borrowed `&str`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field.
struct Field {
    name: String,
    ty: String,
    default: bool,
}

/// The kind of an enum variant.
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Parsed derive input.
enum Input {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<(String, VariantKind)>,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (incl. doc comments) and visibility.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // `pub(crate)` etc.
                    }
                }
            }
            _ => break,
        }
    }

    let kind = ident_at(&tokens, i, "expected `struct` or `enum`");
    i += 1;
    let name = ident_at(&tokens, i, "expected type name");
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive stub: generic types are not supported (type `{name}`)");
    }

    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Input::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                }
            }
            _ => panic!("serde_derive stub: unit structs are not supported (type `{name}`)"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            _ => panic!("serde_derive stub: malformed enum `{name}`"),
        },
        other => panic!("serde_derive stub: cannot derive for `{other}`"),
    }
}

fn ident_at(tokens: &[TokenTree], i: usize, msg: &str) -> String {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive stub: {msg}, got {other:?}"),
    }
}

/// Consumes attributes at `i`, returning whether `#[serde(default)]` was
/// among them. Any other `#[serde(...)]` content is rejected.
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut default = false;
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
                let body = match inner.get(1) {
                    Some(TokenTree::Group(b)) => b.stream().to_string(),
                    _ => String::new(),
                };
                if body.trim() == "default" {
                    default = true;
                } else {
                    panic!("serde_derive stub: unsupported serde attribute `{body}`");
                }
            }
        }
        *i += 2;
    }
    default
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1;
            }
        }
    }
}

/// Advances past one type, stopping at a `,` outside all angle brackets,
/// and returns the type's source text.
fn skip_type(tokens: &[TokenTree], i: &mut usize) -> String {
    let start = *i;
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
        *i += 1;
    }
    tokens[start..*i]
        .iter()
        .cloned()
        .collect::<TokenStream>()
        .to_string()
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let default = take_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i, "expected field name");
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive stub: expected `:` after field `{name}`, got {other:?}"),
        }
        let ty = skip_type(&tokens, &mut i);
        i += 1; // the `,` (or past the end)
        fields.push(Field { name, ty, default });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut arity = 0;
    let mut i = 0;
    while i < tokens.len() {
        take_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        i += 1;
        arity += 1;
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<(String, VariantKind)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        take_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i, "expected variant name");
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Named(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip discriminant-free separator.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push((name, kind));
    }
    variants
}

// --------------------------------------------------------------- codegen

const OK: &str = "::std::result::Result::Ok";
const SOME: &str = "::std::option::Option::Some";

/// `return Err(custom(msg))`.
fn fail(msg: &str) -> String {
    format!("return ::std::result::Result::Err(::serde::Error::custom({msg:?}))")
}

/// Statements writing `fields`, bound as `{prefix}{name}` references, as
/// an object in declaration order.
fn write_object(prefix: &str, fields: &[Field]) -> String {
    let mut s = String::from("__w.begin_object();");
    for f in fields {
        s.push_str(&format!(
            "__w.key({name:?}); ::serde::Serialize::serialize({prefix}{name}, __w);",
            name = f.name
        ));
    }
    s.push_str("__w.end_object();");
    s
}

/// Statements writing the references `items` as an array.
fn write_array(items: &[String]) -> String {
    let mut s = String::from("__w.begin_array();");
    for item in items {
        s.push_str(&format!(
            "__w.element(); ::serde::Serialize::serialize({item}, __w);"
        ));
    }
    s.push_str("__w.end_array();");
    s
}

/// Statements writing `{"variant": <payload>}`.
fn write_variant(vname: &str, payload: &str) -> String {
    format!("{{ __w.begin_object(); __w.key({vname:?}); {payload} __w.end_object(); }}")
}

fn gen_serialize(input: &Input) -> String {
    let (name, body) = match input {
        Input::NamedStruct { name, fields } => (name, write_object("&self.", fields)),
        Input::TupleStruct { name, arity: 1 } => (
            name,
            "::serde::Serialize::serialize(&self.0, __w);".to_string(),
        ),
        Input::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity).map(|k| format!("&self.{k}")).collect();
            (name, write_array(&items))
        }
        Input::Enum { name, variants } => {
            let mut arms = String::new();
            for (vname, kind) in variants {
                arms.push_str(&match kind {
                    VariantKind::Unit => format!("{name}::{vname} => __w.str({vname:?}),"),
                    VariantKind::Tuple(1) => format!(
                        "{name}::{vname}(__f0) => {},",
                        write_variant(vname, "::serde::Serialize::serialize(__f0, __w);")
                    ),
                    VariantKind::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|k| format!("__f{k}")).collect();
                        format!(
                            "{name}::{vname}({}) => {},",
                            binds.join(", "),
                            write_variant(vname, &write_array(&binds))
                        )
                    }
                    VariantKind::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "{name}::{vname} {{ {} }} => {},",
                            binds.join(", "),
                            write_variant(vname, &write_object("", fields))
                        )
                    }
                });
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\
           fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}\
         }}"
    )
}

/// An expression reading an object into `ctor { fields }`: the first
/// occurrence of each key wins, unknown keys are skipped, and a missing
/// field is an error unless it is `#[serde(default)]`.
fn read_object(ctor: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (k, f) in fields.iter().enumerate() {
        let (name, ty) = (&f.name, &f.ty);
        slots.push_str(&format!(
            "let mut __f{k}: ::std::option::Option<{ty}> = ::std::option::Option::None;"
        ));
        arms.push_str(&format!(
            "{name:?} if __f{k}.is_none() => \
               __f{k} = {SOME}(::serde::Deserialize::deserialize(__r)?),"
        ));
        let missing = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            fail(&format!("missing field `{name}` in `{ctor}`"))
        };
        inits.push_str(&format!(
            "{name}: match __f{k} {{ {SOME}(__v) => __v, ::std::option::Option::None => {missing} }},"
        ));
    }
    format!(
        "{{ {slots}\
           __r.begin_object()?;\
           while let {SOME}(__k) = __r.next_key()? {{\
             match &*__k {{ {arms} _ => __r.skip_value()?, }}\
           }}\
           {ctor} {{ {inits} }} }}"
    )
}

/// An expression reading an array of exactly `arity` items into
/// `ctor(..)`.
fn read_array(ctor: &str, arity: usize) -> String {
    let wrong = fail(&format!("expected array of length {arity} for `{ctor}`"));
    let item = format!(
        "if __r.next_element()? {{ ::serde::Deserialize::deserialize(__r)? }} else {{ {wrong} }},"
    );
    format!(
        "{{ __r.begin_array()?;\
           let __v = {ctor}({});\
           if __r.next_element()? {{ {wrong} }}\
           __v }}",
        item.repeat(arity)
    )
}

fn gen_deserialize(input: &Input) -> String {
    let (name, body) = match input {
        Input::NamedStruct { name, fields } => {
            (name, format!("{OK}({})", read_object(name, fields)))
        }
        Input::TupleStruct { name, arity: 1 } => (
            name,
            format!("{OK}({name}(::serde::Deserialize::deserialize(__r)?))"),
        ),
        Input::TupleStruct { name, arity } => (name, format!("{OK}({})", read_array(name, *arity))),
        Input::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for (vname, kind) in variants {
                let ctor = format!("{name}::{vname}");
                match kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("{vname:?} => {OK}({ctor}),"));
                    }
                    VariantKind::Tuple(1) => data_arms.push_str(&format!(
                        "{vname:?} => {ctor}(::serde::Deserialize::deserialize(__r)?),"
                    )),
                    VariantKind::Tuple(arity) => {
                        data_arms.push_str(&format!("{vname:?} => {},", read_array(&ctor, *arity)))
                    }
                    VariantKind::Named(fields) => {
                        data_arms.push_str(&format!("{vname:?} => {},", read_object(&ctor, fields)))
                    }
                }
            }
            let unknown = fail(&format!("unknown variant of `{name}`"));
            let shape = fail(&format!("expected enum representation for `{name}`"));
            let mut arms = String::new();
            if !unit_arms.is_empty() {
                arms.push_str(&format!(
                    "{SOME}(b'\"') => {{\
                       let __s = __r.str()?;\
                       match &*__s {{ {unit_arms} _ => {{ {unknown} }} }}\
                     }}"
                ));
            }
            if !data_arms.is_empty() {
                arms.push_str(&format!(
                    "{SOME}(b'{{') => {{\
                       __r.begin_object()?;\
                       let __k = match __r.next_key()? {{\
                         {SOME}(__k) => __k, ::std::option::Option::None => {{ {shape} }}\
                       }};\
                       let __v = match &*__k {{ {data_arms} _ => {{ {unknown} }} }};\
                       match __r.next_key()? {{\
                         ::std::option::Option::None => {OK}(__v), {SOME}(_) => {{ {shape} }}\
                       }}\
                     }}"
                ));
            }
            (
                name,
                format!("match __r.peek() {{ {arms} _ => {{ {shape} }} }}"),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\
           fn deserialize(__r: &mut ::serde::Reader<'_>) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\
         }}"
    )
}
