//! Request types: the request line and the fully parsed request.

use crate::error::HttpError;
use crate::headers::HeaderMap;
use crate::method::Method;
use crate::uri::RequestTarget;
use std::fmt;

/// The first line of an HTTP request, parsed in isolation.
///
/// The paper's header-parsing threads "parse the first line of each HTTP
/// request", which "contains the path of the resource being requested
/// \[and\] is critical to tell whether that resource is a static file or a
/// dynamically generated page" (§3.2). `RequestLine` is exactly that
/// stage's output.
///
/// # Examples
///
/// ```
/// use staged_http::{Method, RequestLine};
///
/// let line = RequestLine::parse("GET /img/flowers.gif HTTP/1.1").unwrap();
/// assert_eq!(line.method, Method::Get);
/// assert!(line.target.is_static_resource());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLine {
    /// The request method.
    pub method: Method,
    /// The parsed request target.
    pub target: RequestTarget,
    /// `"HTTP/1.0"` or `"HTTP/1.1"`.
    pub version: String,
}

impl RequestLine {
    /// Parses a request line such as `GET /path?x=1 HTTP/1.1`.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] for structural problems,
    /// [`HttpError::UnknownMethod`] for unknown methods, and
    /// [`HttpError::UnsupportedVersion`] for versions other than
    /// HTTP/1.0 and HTTP/1.1.
    pub fn parse(line: &str) -> Result<Self, HttpError> {
        let mut parts = line.split(' ');
        let method_str = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| HttpError::Malformed("empty request line".to_string()))?;
        let target_str = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request target".to_string()))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
        if parts.next().is_some() {
            return Err(HttpError::Malformed(
                "request line has extra fields".to_string(),
            ));
        }
        let method: Method = method_str.parse()?;
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::UnsupportedVersion(version.to_string()));
        }
        let target = RequestTarget::parse(target_str)?;
        Ok(RequestLine {
            method,
            target,
            version: version.to_string(),
        })
    }

    /// Whether this request is for a static resource (paper §3.2 rule).
    pub fn is_static(&self) -> bool {
        self.target.is_static_resource()
    }

    /// Whether a request with this line and `headers` keeps its
    /// connection open: HTTP/1.0 only on an explicit
    /// `Connection: keep-alive`, HTTP/1.1 unless `Connection: close`.
    pub fn keep_alive(&self, headers: &HeaderMap) -> bool {
        if self.version == "HTTP/1.0" {
            headers
                .get("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        } else {
            headers.keep_alive()
        }
    }
}

impl fmt::Display for RequestLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.method, self.target, self.version)
    }
}

/// A fully parsed HTTP request: request line, headers, decoded query
/// parameters, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The parsed request line.
    pub line: RequestLine,
    /// All request headers.
    pub headers: HeaderMap,
    /// Decoded query parameters, in order of appearance.
    pub params: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// Assembles a request from its parsed stages.
    pub fn new(line: RequestLine, headers: HeaderMap, body: Vec<u8>) -> Self {
        let params = line.target.query_pairs();
        Request {
            line,
            headers,
            params,
            body,
        }
    }

    /// Convenience constructor for tests and in-process clients.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a valid request target.
    pub fn get(target: &str) -> Self {
        let line =
            RequestLine::parse(&format!("GET {target} HTTP/1.1")).expect("invalid request target");
        Request::new(line, HeaderMap::new(), Vec::new())
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.line.method
    }

    /// The decoded, normalized request path.
    pub fn path(&self) -> &str {
        self.line.target.path()
    }

    /// First query parameter named `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter named `key`, parsed as an integer.
    pub fn param_u64(&self, key: &str) -> Option<u64> {
        self.param(key)?.trim().parse().ok()
    }

    /// Whether the client requested (or defaulted to) a persistent
    /// connection.
    pub fn keep_alive(&self) -> bool {
        self.line.keep_alive(&self.headers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_examples() {
        let l = RequestLine::parse("GET /img/flowers.gif HTTP/1.1").unwrap();
        assert!(l.is_static());
        let l = RequestLine::parse("GET /homepage?userid=5&popups=no HTTP/1.1").unwrap();
        assert!(!l.is_static());
        assert_eq!(l.target.query_value("popups"), Some("no".to_string()));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(RequestLine::parse("").is_err());
        assert!(RequestLine::parse("GET").is_err());
        assert!(RequestLine::parse("GET /").is_err());
        assert!(RequestLine::parse("GET / HTTP/1.1 extra").is_err());
        assert!(RequestLine::parse("GET  / HTTP/1.1").is_err()); // double space
    }

    #[test]
    fn rejects_bad_method_and_version() {
        assert!(matches!(
            RequestLine::parse("YOINK / HTTP/1.1"),
            Err(HttpError::UnknownMethod(_))
        ));
        assert!(matches!(
            RequestLine::parse("GET / HTTP/2.0"),
            Err(HttpError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn http_10_accepted() {
        let l = RequestLine::parse("GET / HTTP/1.0").unwrap();
        assert_eq!(l.version, "HTTP/1.0");
    }

    #[test]
    fn request_param_access() {
        let r = Request::get("/search?q=books&page=3");
        assert_eq!(r.path(), "/search");
        assert_eq!(r.param("q"), Some("books"));
        assert_eq!(r.param_u64("page"), Some(3));
        assert_eq!(r.param_u64("q"), None);
        assert_eq!(r.param("zzz"), None);
    }

    #[test]
    fn keep_alive_by_version() {
        let mut r = Request::get("/");
        assert!(r.keep_alive());
        r.headers.set("Connection", "close");
        assert!(!r.keep_alive());

        let line = RequestLine::parse("GET / HTTP/1.0").unwrap();
        let mut r10 = Request::new(line, HeaderMap::new(), Vec::new());
        assert!(!r10.keep_alive());
        r10.headers.set("Connection", "keep-alive");
        assert!(r10.keep_alive());
    }

    #[test]
    fn display_round_trips() {
        let l = RequestLine::parse("GET /a?b=1 HTTP/1.1").unwrap();
        assert_eq!(l.to_string(), "GET /a?b=1 HTTP/1.1");
    }
}
