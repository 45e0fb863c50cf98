//! Serve-port authentication flow on top of the shared primitives in
//! [`dim_cluster::auth`].
//!
//! A client of a multi-tenant server sends one [`proto::REQ_AUTH`] frame
//! before anything else: `version · tenant id · SHA-256(token)`. The
//! server looks the id up in its [`crate::tenant::TenantRegistry`] and
//! compares digests in constant time; failures come back as typed
//! [`proto::RESP_ERROR`] frames ([`proto::ERR_UNKNOWN_TENANT`] /
//! [`proto::ERR_UNAUTHORIZED`]) and close the connection. Single-tenant
//! servers (no registry) skip the handshake entirely — the pre-tenant
//! protocol is a proper subset.

use dim_cluster::auth::{token_digest, Digest};

use crate::proto::{self, QueryRequest};
use crate::tenant::AuthFailure;

/// What a client presents to a multi-tenant server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// Tenant id (registry key).
    pub tenant: String,
    /// Bearer token; hashed before it touches the wire.
    pub token: String,
}

impl Credentials {
    pub fn new(tenant: impl Into<String>, token: impl Into<String>) -> Credentials {
        Credentials {
            tenant: tenant.into(),
            token: token.into(),
        }
    }

    /// Credentials from `DIM_TENANT` / `DIM_TOKEN`, if both are set and
    /// the tenant id is non-empty (an unset pair means "single-tenant
    /// server, no handshake").
    pub fn from_env() -> Option<Credentials> {
        let tenant = std::env::var("DIM_TENANT").ok()?;
        if tenant.is_empty() {
            return None;
        }
        let token = std::env::var("DIM_TOKEN").unwrap_or_default();
        Some(Credentials { tenant, token })
    }

    /// The digest that travels in the AUTH frame.
    pub fn digest(&self) -> Digest {
        token_digest(&self.token)
    }

    /// The AUTH frame announcing these credentials.
    pub fn auth_request(&self) -> QueryRequest {
        QueryRequest::Auth {
            version: proto::AUTH_VERSION,
            tenant: self.tenant.clone(),
            auth: self.digest(),
        }
    }
}

/// The wire error a refused AUTH attempt maps to.
pub(crate) fn failure_error(tenant: &str, failure: AuthFailure) -> (u8, String) {
    match failure {
        AuthFailure::UnknownTenant => (
            proto::ERR_UNKNOWN_TENANT,
            format!("unknown tenant {tenant:?}"),
        ),
        AuthFailure::BadToken => (
            proto::ERR_UNAUTHORIZED,
            format!("bad token for tenant {tenant:?}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_request_carries_digest_not_token() {
        let creds = Credentials::new("acme", "hunter2");
        match creds.auth_request() {
            QueryRequest::Auth {
                version,
                tenant,
                auth,
            } => {
                assert_eq!(version, proto::AUTH_VERSION);
                assert_eq!(tenant, "acme");
                assert_eq!(auth, token_digest("hunter2"));
                // The encoded frame never contains the secret bytes.
                let body = creds.auth_request().encode();
                assert!(!body
                    .windows("hunter2".len())
                    .any(|w| w == "hunter2".as_bytes()));
            }
            other => panic!("expected Auth, got {other:?}"),
        }
    }

    #[test]
    fn failure_errors_are_distinct() {
        let (unknown, _) = failure_error("a", AuthFailure::UnknownTenant);
        let (bad, _) = failure_error("a", AuthFailure::BadToken);
        assert_eq!(unknown, proto::ERR_UNKNOWN_TENANT);
        assert_eq!(bad, proto::ERR_UNAUTHORIZED);
        assert_ne!(unknown, bad);
    }
}
