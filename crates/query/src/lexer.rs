//! Tokeniser for the restricted SQL surface syntax.

use crate::error::{QueryError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A bare identifier or keyword (keywords are recognised by the parser,
    /// case-insensitively).
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// A single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Token {
    /// True if the token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenise a query string, one `char` at a time: a literal keeps its
/// characters and an identifier may be any alphabetic word, so the SQL of a
/// region over a non-ASCII value or attribute parses back to that region.
/// Error positions are byte offsets.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let token = match c {
            ' ' | '\t' | '\n' | '\r' => continue,
            '*' => Token::Star,
            '(' => Token::LParen,
            ')' => Token::RParen,
            ',' => Token::Comma,
            '=' => Token::Eq,
            '<' | '>' => match (c, chars.next_if(|&(_, next)| next == '=').is_some()) {
                ('<', false) => Token::Lt,
                ('<', true) => Token::Le,
                (_, false) => Token::Gt,
                (_, true) => Token::Ge,
            },
            '\'' => {
                // String literal with '' as escaped quote.
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => {
                            return Err(QueryError::Lex {
                                position: i,
                                message: "unterminated string literal".to_string(),
                            })
                        }
                        Some((_, '\'')) => {
                            if chars.next_if(|&(_, next)| next == '\'').is_none() {
                                break;
                            }
                            s.push('\'');
                        }
                        Some((_, other)) => s.push(other),
                    }
                }
                Token::StringLit(s)
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                let (mut end, mut prev) = (i + 1, c);
                while let Some((j, cj)) = chars.next_if(|&(_, cj)| {
                    let sign_in_exponent = (cj == '-' || cj == '+') && (prev == 'e' || prev == 'E');
                    cj.is_ascii_digit() || cj == '.' || cj == 'e' || cj == 'E' || sign_in_exponent
                }) {
                    (end, prev) = (j + 1, cj);
                }
                let text = &input[i..end];
                let value = text.parse::<f64>().map_err(|_| QueryError::Lex {
                    position: i,
                    message: format!("invalid number: {text}"),
                })?;
                Token::Number(value)
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut end = i + c.len_utf8();
                while let Some((j, cj)) =
                    chars.next_if(|&(_, cj)| cj.is_alphanumeric() || cj == '_' || cj == '.')
                {
                    end = j + cj.len_utf8();
                }
                Token::Ident(input[i..end].to_string())
            }
            other => {
                return Err(QueryError::Lex {
                    position: i,
                    message: format!("unexpected character '{other}'"),
                })
            }
        };
        tokens.push(token);
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_full_query() {
        let toks = tokenize(
            "SELECT * FROM survey WHERE age BETWEEN 17 AND 90 AND education IN ('BSc', 'MSc')",
        )
        .unwrap();
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Number(17.0)));
        assert!(toks.contains(&Token::StringLit("BSc".to_string())));
        assert!(toks.iter().any(|t| t.is_keyword("select")));
        assert!(toks.iter().any(|t| t.is_keyword("between")));
    }

    #[test]
    fn numbers_including_negative_and_float() {
        let toks = tokenize("-3.5 42 1e3 2.5e-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number(-3.5),
                Token::Number(42.0),
                Token::Number(1000.0),
                Token::Number(0.025)
            ]
        );
    }

    #[test]
    fn string_escape() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::StringLit("it's".to_string())]);
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a >= 1 AND b < 2 AND c <= 3 AND d > 4 AND e = 'x'").unwrap();
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Lt));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Gt));
        assert!(toks.contains(&Token::Eq));
    }

    #[test]
    fn errors_carry_position() {
        let err = tokenize("age ? 5").unwrap_err();
        assert!(matches!(err, QueryError::Lex { position: 4, .. }));
        let err = tokenize("'unterminated").unwrap_err();
        assert!(matches!(err, QueryError::Lex { .. }));
        let err = tokenize("age = 1.2.3.4e").unwrap_err();
        assert!(matches!(err, QueryError::Lex { .. }));
    }

    #[test]
    fn identifiers_with_underscores_and_dots() {
        let toks = tokenize("hours_per_week t1.col").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("hours_per_week".to_string()),
                Token::Ident("t1.col".to_string())
            ]
        );
    }

    #[test]
    fn non_ascii_literals_and_identifiers_keep_their_characters() {
        let toks = tokenize("größe IN ('Zürich', 'Åre''s') AND ünits.ø >= 1").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("größe".to_string()),
                Token::Ident("IN".to_string()),
                Token::LParen,
                Token::StringLit("Zürich".to_string()),
                Token::Comma,
                Token::StringLit("Åre's".to_string()),
                Token::RParen,
                Token::Ident("AND".to_string()),
                Token::Ident("ünits.ø".to_string()),
                Token::Ge,
                Token::Number(1.0),
            ]
        );
        // Positions stay byte offsets.
        let err = tokenize("größe ? 1").unwrap_err();
        assert!(matches!(err, QueryError::Lex { position: 8, .. }));
    }

    #[test]
    fn empty_input_is_ok() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t ").unwrap().is_empty());
    }
}
