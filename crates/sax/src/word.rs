//! SAX words: strings over a small alphabet.

use std::fmt;
use std::str::FromStr;

/// A SAX word: a sequence of symbol indices under a fixed alphabet size.
///
/// Displayed using Latin letters (`0 → 'a'`). The paper stores each sign's
/// canonical view as such a string and matches live frames against the
/// database of strings.
///
/// # Example
/// ```
/// use hdc_sax::SaxWord;
/// let w: SaxWord = "abca".parse().unwrap();
/// assert_eq!(w.len(), 4);
/// assert_eq!(w.alphabet(), 3); // highest symbol seen is 'c'
/// assert_eq!(w.to_string(), "abca");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SaxWord {
    symbols: Vec<u8>,
    alphabet: u8,
}

/// Error constructing a [`SaxWord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxWordError {
    /// A symbol index was not below the alphabet size.
    SymbolOutOfRange {
        /// The offending symbol index.
        symbol: u8,
        /// The alphabet size.
        alphabet: u8,
    },
    /// Parsed character was not a lowercase Latin letter.
    InvalidCharacter(char),
    /// The word had no symbols.
    Empty,
}

impl fmt::Display for SaxWordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaxWordError::SymbolOutOfRange { symbol, alphabet } => {
                write!(f, "symbol {symbol} out of range for alphabet {alphabet}")
            }
            SaxWordError::InvalidCharacter(c) => write!(f, "invalid SAX character {c:?}"),
            SaxWordError::Empty => write!(f, "empty SAX word"),
        }
    }
}

impl std::error::Error for SaxWordError {}

impl SaxWord {
    /// Creates a word from raw symbol indices and an alphabet size.
    ///
    /// # Errors
    /// [`SaxWordError::SymbolOutOfRange`] when any symbol ≥ `alphabet`;
    /// [`SaxWordError::Empty`] for an empty symbol list.
    pub fn new(symbols: Vec<u8>, alphabet: u8) -> Result<Self, SaxWordError> {
        if symbols.is_empty() {
            return Err(SaxWordError::Empty);
        }
        if let Some(&bad) = symbols.iter().find(|s| **s >= alphabet) {
            return Err(SaxWordError::SymbolOutOfRange {
                symbol: bad,
                alphabet,
            });
        }
        Ok(SaxWord { symbols, alphabet })
    }

    /// The symbol indices.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// The alphabet size the word was encoded with.
    pub fn alphabet(&self) -> u8 {
        self.alphabet
    }

    /// Word length (number of PAA segments).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the word is empty (never true for constructed words).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The word circularly rotated left by `shift` symbols.
    pub fn rotated_left(&self, shift: usize) -> SaxWord {
        let n = self.symbols.len();
        let s = shift % n;
        let mut symbols = Vec::with_capacity(n);
        symbols.extend_from_slice(&self.symbols[s..]);
        symbols.extend_from_slice(&self.symbols[..s]);
        SaxWord {
            symbols,
            alphabet: self.alphabet,
        }
    }
}

impl fmt::Display for SaxWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.symbols {
            write!(f, "{}", (b'a' + s) as char)?;
        }
        Ok(())
    }
}

impl FromStr for SaxWord {
    type Err = SaxWordError;

    /// Parses letters `a…z`; the alphabet size is the highest letter + 1
    /// (at least 2).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(SaxWordError::Empty);
        }
        let mut symbols = Vec::with_capacity(s.len());
        let mut max = 0u8;
        for c in s.chars() {
            if !c.is_ascii_lowercase() {
                return Err(SaxWordError::InvalidCharacter(c));
            }
            let idx = c as u8 - b'a';
            max = max.max(idx);
            symbols.push(idx);
        }
        SaxWord::new(symbols, (max + 1).max(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(SaxWord::new(vec![0, 1, 2], 3).is_ok());
        assert_eq!(
            SaxWord::new(vec![0, 3], 3),
            Err(SaxWordError::SymbolOutOfRange {
                symbol: 3,
                alphabet: 3
            })
        );
        assert_eq!(SaxWord::new(vec![], 3), Err(SaxWordError::Empty));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let w = SaxWord::new(vec![0, 2, 1, 2], 3).unwrap();
        assert_eq!(w.to_string(), "acbc");
        let parsed: SaxWord = "acbc".parse().unwrap();
        assert_eq!(parsed.symbols(), w.symbols());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            "aBc".parse::<SaxWord>(),
            Err(SaxWordError::InvalidCharacter('B'))
        );
        assert_eq!("".parse::<SaxWord>(), Err(SaxWordError::Empty));
    }

    #[test]
    fn parse_single_letter_gets_min_alphabet() {
        let w: SaxWord = "aaaa".parse().unwrap();
        assert_eq!(w.alphabet(), 2);
    }

    #[test]
    fn rotation() {
        let w: SaxWord = "abcd".parse().unwrap();
        assert_eq!(w.rotated_left(1).to_string(), "bcda");
        assert_eq!(w.rotated_left(4).to_string(), "abcd");
        assert_eq!(w.rotated_left(6).to_string(), "cdab");
    }

    #[test]
    fn error_messages() {
        assert_eq!(
            SaxWordError::SymbolOutOfRange {
                symbol: 9,
                alphabet: 4
            }
            .to_string(),
            "symbol 9 out of range for alphabet 4"
        );
        assert_eq!(SaxWordError::Empty.to_string(), "empty SAX word");
    }
}
