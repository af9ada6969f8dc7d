//! Recursive-descent parser.
//!
//! Grammar (Smalltalk precedence: unary > binary > keyword):
//!
//! ```text
//! program  := classdef*
//! classdef := 'class' IDENT ('extends' IDENT)? ('vars' IDENT*)? method* 'end'
//! method   := 'method' pattern ('|' IDENT* '|')? statements 'end'
//! pattern  := IDENT | BINOP IDENT | (KEYWORD IDENT)+
//! stmts    := stmt ('.' stmt)* '.'?
//! stmt     := '^' expr | expr
//! expr     := IDENT ':=' expr | keyword
//! keyword  := binary (KEYWORD binary)*
//! binary   := unary (BINOP unary)*
//! unary    := primary IDENT*
//! primary  := literal | IDENT | '(' expr ')' | block
//! block    := '[' (BLOCKPARAM* '|')? stmts ']'
//! ```
//!
//! Nesting is bounded by [`MAX_NESTING`]: semantic analysis, both code
//! generators and the tree's drop recurse over the tree the parser
//! returns, so source nested deeper is a [`CompileError::Parse`], not a
//! stack overflow.

use crate::ast::{Block, ClassDef, Expr, MethodDef, Program, Stmt};
use crate::lex::{lex, Spanned, Token};
use crate::CompileError;

/// The deepest nesting the parser accepts, counted along the deepest path
/// through an expression: parentheses, assignments and message sends
/// count one level each, and a block two (the block, and the statements
/// nested in it, each of which costs the parser's recursion more stack
/// than a parenthesis). The stdlib and the workloads nest at most 12
/// levels; a debug build compiles 256 levels on a 2 MiB thread.
pub(crate) const MAX_NESTING: usize = 256;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Levels open around the current position: the parentheses, blocks
    /// and assignments the parser is inside.
    depth: usize,
}

/// A parsed expression and the levels it nests, counted as for
/// [`MAX_NESTING`].
type Nested = (Expr, usize);

/// Parses a program.
///
/// # Errors
///
/// Returns [`CompileError::Lex`] or [`CompileError::Parse`].
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut classes = Vec::new();
    while !p.at_end() {
        classes.push(p.class_def()?);
    }
    Ok(Program { classes })
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.at)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> CompileError {
        CompileError::Parse {
            at: self.here(),
            message: message.into(),
        }
    }

    /// `levels`, if an expression that deep fits inside the open levels.
    fn within(&self, levels: usize) -> Result<usize, CompileError> {
        if self.depth + levels > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(levels)
    }

    /// Opens `levels` more levels around the contents of parentheses, a
    /// block or an assignment. The caller closes them once the contents
    /// parse; an error ends the whole parse, so it leaves them open.
    fn open(&mut self, levels: usize) -> Result<(), CompileError> {
        self.within(levels)?;
        self.depth += levels;
        Ok(())
    }

    /// Closes the `levels` that [`open`](Self::open) opened, at their
    /// `closing` token (`what`, to name it in an error).
    fn close(&mut self, levels: usize, closing: Token, what: &str) -> Result<(), CompileError> {
        self.depth -= levels;
        match self.bump() {
            Some(t) if t == closing => Ok(()),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, CompileError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn eat_keyword_ident(&mut self, word: &str) -> bool {
        if self.peek() == Some(&Token::Ident(word.to_string())) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn class_def(&mut self) -> Result<ClassDef, CompileError> {
        if !self.eat_keyword_ident("class") {
            return Err(self.err("expected 'class'"));
        }
        let name = self.expect_ident("class name")?;
        let superclass = if self.eat_keyword_ident("extends") {
            Some(self.expect_ident("superclass name")?)
        } else {
            None
        };
        let mut ivars = Vec::new();
        if self.eat_keyword_ident("vars") {
            while let Some(Token::Ident(s)) = self.peek() {
                if s == "method" || s == "end" {
                    break;
                }
                ivars.push(s.clone());
                self.pos += 1;
            }
        }
        let mut methods = Vec::new();
        loop {
            if self.eat_keyword_ident("end") {
                break;
            }
            if self.eat_keyword_ident("method") {
                methods.push(self.method_def()?);
            } else {
                return Err(self.err("expected 'method' or 'end' in class body"));
            }
        }
        Ok(ClassDef {
            name,
            superclass,
            ivars,
            methods,
        })
    }

    fn method_def(&mut self) -> Result<MethodDef, CompileError> {
        // Pattern.
        let (selector, params) = match self.bump() {
            Some(Token::Ident(name)) => (name, vec![]),
            Some(Token::BinOp(op)) => {
                let p = self.expect_ident("binary parameter")?;
                (op, vec![p])
            }
            Some(Token::Keyword(first)) => {
                let mut sel = first;
                let mut params = vec![self.expect_ident("keyword parameter")?];
                while let Some(Token::Keyword(k)) = self.peek() {
                    sel.push_str(&k.clone());
                    self.pos += 1;
                    params.push(self.expect_ident("keyword parameter")?);
                }
                (sel, params)
            }
            other => return Err(self.err(format!("expected method pattern, found {other:?}"))),
        };
        // Temporaries.
        let mut temps = Vec::new();
        if self.peek() == Some(&Token::Bar) {
            self.pos += 1;
            loop {
                match self.bump() {
                    Some(Token::Ident(s)) => temps.push(s),
                    Some(Token::Bar) => break,
                    other => {
                        return Err(self.err(format!("expected temp name or '|', found {other:?}")))
                    }
                }
            }
        }
        let (body, _) = self.statements(&Token::Ident("end".into()))?;
        if !self.eat_keyword_ident("end") {
            return Err(self.err("expected 'end' after method body"));
        }
        Ok(MethodDef {
            selector,
            params,
            temps,
            body,
        })
    }

    /// Parses statements until `terminator` (not consumed), with the levels
    /// of the deepest.
    fn statements(&mut self, terminator: &Token) -> Result<(Vec<Stmt>, usize), CompileError> {
        let mut out = Vec::new();
        let mut levels = 0;
        loop {
            if self.peek() == Some(terminator) || self.at_end() {
                break;
            }
            let ret = self.peek() == Some(&Token::Caret);
            if ret {
                self.pos += 1;
            }
            let (e, l) = self.expr()?;
            levels = levels.max(l);
            out.push(if ret { Stmt::Return(e) } else { Stmt::Expr(e) });
            if self.peek() == Some(&Token::Period) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((out, levels))
    }

    fn expr(&mut self) -> Result<Nested, CompileError> {
        // Assignment lookahead: IDENT ':='
        if let Some(Token::Ident(name)) = self.peek() {
            if self.toks.get(self.pos + 1).map(|s| &s.token) == Some(&Token::Assign) {
                let name = name.clone();
                self.pos += 2;
                self.open(1)?;
                let (value, levels) = self.expr()?;
                self.depth -= 1;
                return Ok((Expr::Assign(name, Box::new(value)), levels + 1));
            }
        }
        self.keyword_expr()
    }

    fn keyword_expr(&mut self) -> Result<Nested, CompileError> {
        let (recv, mut levels) = self.binary_expr()?;
        if let Some(Token::Keyword(_)) = self.peek() {
            let mut selector = String::new();
            let mut args = Vec::new();
            while let Some(Token::Keyword(k)) = self.peek() {
                selector.push_str(&k.clone());
                self.pos += 1;
                let (arg, l) = self.binary_expr()?;
                levels = levels.max(l);
                args.push(arg);
            }
            let send = Expr::Send {
                recv: Box::new(recv),
                selector,
                args,
            };
            Ok((send, self.within(levels + 1)?))
        } else {
            Ok((recv, levels))
        }
    }

    fn binary_expr(&mut self) -> Result<Nested, CompileError> {
        let (mut left, mut levels) = self.unary_expr()?;
        while let Some(Token::BinOp(op)) = self.peek() {
            let op = op.clone();
            self.pos += 1;
            let (right, r) = self.unary_expr()?;
            levels = self.within(levels.max(r) + 1)?;
            left = Expr::Send {
                recv: Box::new(left),
                selector: op,
                args: vec![right],
            };
        }
        Ok((left, levels))
    }

    fn unary_expr(&mut self) -> Result<Nested, CompileError> {
        let (mut recv, mut levels) = self.primary()?;
        while let Some(Token::Ident(name)) = self.peek() {
            // Structural keywords never act as unary selectors.
            if matches!(
                name.as_str(),
                "end" | "method" | "class" | "extends" | "vars"
            ) {
                break;
            }
            let name = name.clone();
            self.pos += 1;
            levels = self.within(levels + 1)?;
            recv = Expr::Send {
                recv: Box::new(recv),
                selector: name,
                args: vec![],
            };
        }
        Ok((recv, levels))
    }

    fn primary(&mut self) -> Result<Nested, CompileError> {
        let leaf = match self.bump() {
            Some(Token::Int(i)) => Expr::Int(i),
            Some(Token::Float(x)) => Expr::Float(x),
            Some(Token::Atom(a)) => Expr::Atom(a),
            Some(Token::Ident(name)) => match name.as_str() {
                "self" => Expr::SelfRef,
                "true" => Expr::True,
                "false" => Expr::False,
                "nil" => Expr::Nil,
                _ => {
                    if name.chars().next().is_some_and(char::is_uppercase) {
                        Expr::ClassRef(name)
                    } else {
                        Expr::Var(name)
                    }
                }
            },
            Some(Token::LParen) => {
                self.open(1)?;
                let (e, levels) = self.expr()?;
                self.close(1, Token::RParen, "')'")?;
                return Ok((e, levels + 1));
            }
            Some(Token::LBracket) => return self.block(),
            other => return Err(self.err(format!("expected expression, found {other:?}"))),
        };
        Ok((leaf, 0))
    }

    /// A block literal, after its `[`.
    fn block(&mut self) -> Result<Nested, CompileError> {
        let mut params = Vec::new();
        while let Some(Token::BlockParam(p)) = self.peek() {
            params.push(p.clone());
            self.pos += 1;
        }
        if !params.is_empty() {
            match self.bump() {
                Some(Token::Bar) => {}
                other => {
                    return Err(
                        self.err(format!("expected '|' after block params, found {other:?}"))
                    )
                }
            }
        }
        self.open(2)?;
        let (body, levels) = self.statements(&Token::RBracket)?;
        self.close(2, Token::RBracket, "']'")?;
        Ok((Expr::Block(Block { params, body }), levels + 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_class_with_methods() {
        let src = r#"
            class Point extends Object
              vars x y
              method setX: ax y: ay
                x := ax. y := ay. ^self
              end
              method x ^x end
            end
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.classes.len(), 1);
        let c = &p.classes[0];
        assert_eq!(c.name, "Point");
        assert_eq!(c.superclass.as_deref(), Some("Object"));
        assert_eq!(c.ivars, vec!["x", "y"]);
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.methods[0].selector, "setX:y:");
        assert_eq!(c.methods[0].params, vec!["ax", "ay"]);
        assert_eq!(c.methods[1].selector, "x");
    }

    #[test]
    fn precedence_unary_binary_keyword() {
        let src = "class T method m ^a foo + b bar at: c baz end end";
        let p = parse(src).unwrap();
        let Stmt::Return(e) = &p.classes[0].methods[0].body[0] else {
            panic!("expected return")
        };
        // (a foo + b bar) at: (c baz)
        let Expr::Send {
            selector,
            recv,
            args,
        } = e
        else {
            panic!()
        };
        assert_eq!(selector, "at:");
        let Expr::Send { selector: plus, .. } = recv.as_ref() else {
            panic!()
        };
        assert_eq!(plus, "+");
        let Expr::Send { selector: baz, .. } = &args[0] else {
            panic!()
        };
        assert_eq!(baz, "baz");
    }

    #[test]
    fn parses_blocks_and_temps() {
        let src =
            "class T method m | acc | acc := 0. [ :i | acc := acc + i ] value: 3. ^acc end end";
        let p = parse(src).unwrap();
        let m = &p.classes[0].methods[0];
        assert_eq!(m.temps, vec!["acc"]);
        assert_eq!(m.body.len(), 3);
    }

    #[test]
    fn keyword_chains_merge_into_one_selector() {
        let src = "class T method m ^d at: 1 put: 2 end end";
        let p = parse(src).unwrap();
        let Stmt::Return(Expr::Send { selector, args, .. }) = &p.classes[0].methods[0].body[0]
        else {
            panic!()
        };
        assert_eq!(selector, "at:put:");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn class_extension_without_extends() {
        let src = "class SmallInteger method double ^self + self end end";
        let p = parse(src).unwrap();
        assert_eq!(p.classes[0].superclass, None);
        assert!(p.classes[0].ivars.is_empty());
    }

    /// Source whose method returns an expression nested `n` times in one
    /// of five shapes: parentheses, a binary chain, a unary chain, an
    /// assignment chain and blocks.
    fn nested_source(shape: usize, n: usize) -> String {
        let expr = match shape {
            0 => format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            1 => format!("1{}", " + 1".repeat(n)),
            2 => format!("self{}", " abs".repeat(n)),
            3 => format!("{}1", "x := ".repeat(n)),
            _ => format!("{}1{}", "[".repeat(n), "]".repeat(n)),
        };
        format!("class T method m | x | ^{expr} end end")
    }

    #[test]
    fn deep_source_is_a_compile_error_not_a_stack_overflow() {
        // On a thread with the default 2 MiB stack, a million levels must
        // be an error, not a stack overflow that aborts the process.
        let compile = |shape, n| crate::compile_com(&nested_source(shape, n), Default::default());
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for shape in 0..5 {
                    // Nested real blocks do not compile (`Semantic`), so
                    // the block shape is checked past the limit only.
                    if shape < 4 {
                        if let Err(e) = compile(shape, MAX_NESTING) {
                            panic!("shape {shape} at the limit: {e}");
                        }
                    }
                    for n in [MAX_NESTING + 1, 1_000_000] {
                        let e = compile(shape, n).expect_err("nested past the limit");
                        assert!(
                            matches!(&e, CompileError::Parse { message, .. } if message.contains("nesting")),
                            "shape {shape}, {n} levels: {e}"
                        );
                    }
                }
            })
            .expect("spawn")
            .join()
            .expect("no shape overflows the stack");
    }

    #[test]
    fn errors_are_positioned() {
        assert!(matches!(parse("class"), Err(CompileError::Parse { .. })));
        assert!(
            parse("class T method m ^1 end").is_err(),
            "missing class end"
        );
    }
}
