//! Error type for graph construction and IO.

use std::fmt;

/// Errors produced while parsing or constructing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying IO failure while reading or writing an edge list.
    Io(std::io::Error),
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what failed.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_source_preserved() {
        use std::error::Error;
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = GraphError::from(inner);
        assert!(e.source().is_some());
    }
}
