//! Error types for stream construction and parsing.

use std::fmt;

/// Errors raised when building a [`LinkStream`](crate::LinkStream).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The builder contained no usable (non-self-loop) link.
    Empty,
    /// An explicit study period was given that does not contain every event.
    PeriodTooShort {
        /// The offending event instant.
        event: i64,
        /// The declared period start.
        begin: i64,
        /// The declared period end.
        end: i64,
    },
    /// An explicit study period was given with `begin > end`.
    InvertedPeriod {
        /// The declared period start.
        begin: i64,
        /// The declared period end.
        end: i64,
    },
    /// The study period's length `end - begin` does not fit in an `i64`
    /// tick count.
    SpanOverflow {
        /// The period start.
        begin: i64,
        /// The period end.
        end: i64,
    },
    /// Periodic sampling was asked to start at `begin + phase`, which does
    /// not fit in an `i64` tick count.
    SamplingOverflow {
        /// The study period start.
        begin: i64,
        /// The sampling phase.
        phase: i64,
    },
    /// Periodic sampling would read more punctual events than
    /// [`MAX_SAMPLED_EVENTS`](crate::interval::MAX_SAMPLED_EVENTS).
    TooManySamples {
        /// Reads the sampling would produce, summed over every link.
        reads: u128,
        /// The cap.
        cap: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Empty => write!(f, "link stream contains no usable link"),
            BuildError::PeriodTooShort { event, begin, end } => write!(
                f,
                "event at t={event} lies outside the declared study period [{begin}, {end}]"
            ),
            BuildError::InvertedPeriod { begin, end } => {
                write!(f, "study period [{begin}, {end}] has begin > end")
            }
            BuildError::SpanOverflow { begin, end } => {
                write!(f, "study period [{begin}, {end}] is longer than {} ticks", i64::MAX)
            }
            BuildError::SamplingOverflow { begin, phase } => write!(
                f,
                "first sampling instant {begin} + {phase} is past the last representable tick"
            ),
            BuildError::TooManySamples { reads, cap } => write!(
                f,
                "periodic sampling would read {reads} events, more than the cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors raised while parsing a textual link-stream file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be interpreted.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The parsed data could not form a valid stream.
    Build(BuildError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseError::Build(e) => write!(f, "invalid stream: {e}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Build(e) => Some(e),
            ParseError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<BuildError> for ParseError {
    fn from(e: BuildError) -> Self {
        ParseError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = BuildError::PeriodTooShort { event: 12, begin: 0, end: 10 };
        assert!(e.to_string().contains("t=12"));
        let p = ParseError::Malformed { line: 3, reason: "missing timestamp".into() };
        assert!(p.to_string().contains("line 3"));
    }

    #[test]
    fn parse_error_sources_chain() {
        use std::error::Error;
        let p = ParseError::Build(BuildError::Empty);
        assert!(p.source().is_some());
        let m = ParseError::Malformed { line: 1, reason: "x".into() };
        assert!(m.source().is_none());
    }
}
