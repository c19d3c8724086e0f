//! Permissions and sharing (§2.4).
//!
//! Sessions and artifacts carry access-control lists with graded
//! permission levels; sharing outside the platform uses generated
//! secret+key tokens that authorize access "rather than a user directly",
//! convenient to embed in a URL.

use std::collections::BTreeMap;

use crate::error::{CollabError, Result};

/// Graded access levels ("various levels of access privileges can be
/// granted to or revoked from individual collaborators").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Permission {
    /// See the artifact/session and its recipe.
    View,
    /// Take actions (run skills, refresh).
    Act,
    /// Edit the object (rename, change steps) and reshare.
    Edit,
    /// Full control (delete, manage permissions).
    Own,
}

impl Permission {
    /// Whether this level allows running skills.
    pub fn can_act(self) -> bool {
        self >= Permission::Act
    }

    /// Whether this level allows edits.
    pub fn can_edit(self) -> bool {
        self >= Permission::Edit
    }
}

/// An access-control list with an owner.
#[derive(Debug, Clone, Default)]
pub struct Shareable {
    grants: BTreeMap<String, Permission>,
}

impl Shareable {
    /// An ACL whose owner holds [`Permission::Own`].
    pub fn owned_by(owner: impl Into<String>) -> Shareable {
        let mut s = Shareable::default();
        s.grants.insert(owner.into(), Permission::Own);
        s
    }

    /// Grant (or change) a user's permission.
    pub fn grant(&mut self, user: impl Into<String>, permission: Permission) {
        self.grants.insert(user.into(), permission);
    }

    /// Revoke a user's access entirely.
    pub fn revoke(&mut self, user: &str) {
        self.grants.remove(user);
    }

    /// The permission a user holds.
    pub fn permission_of(&self, user: &str) -> Option<Permission> {
        self.grants.get(user).copied()
    }

    /// All grants (sorted by user).
    pub fn grants(&self) -> impl Iterator<Item = (&str, Permission)> {
        self.grants.iter().map(|(u, p)| (u.as_str(), *p))
    }
}

/// A secret+key share token for out-of-platform recipients (§2.4: "a
/// generated secret and key ... highly convenient to include this secret
/// in a URL").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareLink {
    /// Public key naming the artifact grant.
    pub key: String,
    /// The secret that authorizes access.
    pub secret: String,
    /// Artifact this link exposes.
    pub artifact: String,
    /// What the bearer may do.
    pub permission: Permission,
    /// Whether the link has been revoked.
    pub revoked: bool,
}

/// Issues and validates share links.
#[derive(Debug, Default)]
pub struct LinkIssuer {
    links: BTreeMap<String, ShareLink>,
    counter: u64,
}

fn obscure(x: u64) -> String {
    // A small deterministic scrambler — unguessable enough for tests,
    // clearly not cryptography (the product would use a real CSPRNG).
    let mut v = x.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03;
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(16);
    for _ in 0..16 {
        s.push(HEX[(v & 0xF) as usize] as char);
        v = (v >> 4) ^ v.wrapping_mul(0xff51afd7ed558ccd);
    }
    s
}

impl LinkIssuer {
    /// A fresh issuer.
    pub fn new() -> LinkIssuer {
        LinkIssuer::default()
    }

    /// Issue a link for an artifact.
    pub fn issue(&mut self, artifact: impl Into<String>, permission: Permission) -> ShareLink {
        self.counter += 1;
        let key = format!("k{}", obscure(self.counter));
        let secret = obscure(self.counter.wrapping_mul(7) ^ 0xfeed);
        let link = ShareLink {
            key: key.clone(),
            secret,
            artifact: artifact.into(),
            permission,
            revoked: false,
        };
        self.links.insert(key, link.clone());
        link
    }

    /// Authorize a (key, secret) pair, returning the artifact name and
    /// permission on success.
    pub fn authorize(&self, key: &str, secret: &str) -> Result<(&str, Permission)> {
        let link = self.links.get(key).ok_or(CollabError::BadSecret)?;
        if link.revoked || link.secret != secret {
            return Err(CollabError::BadSecret);
        }
        Ok((link.artifact.as_str(), link.permission))
    }

    /// Revoke a link by key.
    pub fn revoke(&mut self, key: &str) -> Result<()> {
        self.links
            .get_mut(key)
            .map(|l| l.revoked = true)
            .ok_or(CollabError::BadSecret)
    }

    /// Render a link as a shareable URL.
    pub fn url(link: &ShareLink) -> String {
        format!(
            "https://app.datachat.local/shared/{}?secret={}",
            link.key, link.secret
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permission_ordering() {
        assert!(Permission::Own > Permission::Edit);
        assert!(Permission::Edit.can_act());
        assert!(!Permission::View.can_act());
        assert!(!Permission::Act.can_edit());
        assert!(Permission::Own.can_edit());
    }

    #[test]
    fn acl_grant_revoke() {
        let mut acl = Shareable::owned_by("ann");
        assert_eq!(acl.permission_of("ann"), Some(Permission::Own));
        acl.grant("bob", Permission::View);
        assert_eq!(acl.permission_of("bob"), Some(Permission::View));
        acl.grant("bob", Permission::Edit); // upgrade
        assert_eq!(acl.permission_of("bob"), Some(Permission::Edit));
        acl.revoke("bob");
        assert_eq!(acl.permission_of("bob"), None);
        assert_eq!(acl.grants().count(), 1);
    }

    #[test]
    fn links_authorize_and_revoke() {
        let mut issuer = LinkIssuer::new();
        let link = issuer.issue("q3-report", Permission::View);
        let (artifact, perm) = issuer.authorize(&link.key, &link.secret).unwrap();
        assert_eq!(artifact, "q3-report");
        assert_eq!(perm, Permission::View);
        // Wrong secret fails.
        assert!(issuer.authorize(&link.key, "nope").is_err());
        assert!(issuer.authorize("missing", &link.secret).is_err());
        // Revocation closes the door.
        issuer.revoke(&link.key).unwrap();
        assert!(issuer.authorize(&link.key, &link.secret).is_err());
        assert!(issuer.revoke("missing").is_err());
    }

    #[test]
    fn urls_embed_both_parts() {
        let mut issuer = LinkIssuer::new();
        let link = issuer.issue("chart1", Permission::View);
        let url = LinkIssuer::url(&link);
        assert!(url.contains(&link.key));
        assert!(url.contains(&link.secret));
    }

    #[test]
    fn distinct_links_have_distinct_secrets() {
        let mut issuer = LinkIssuer::new();
        let a = issuer.issue("x", Permission::View);
        let b = issuer.issue("x", Permission::View);
        assert_ne!(a.key, b.key);
        assert_ne!(a.secret, b.secret);
    }
}
