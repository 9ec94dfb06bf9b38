//! Server-side object traits and the class registry.
//!
//! In the paper, a class declaration is enough for the compiler to generate
//! the server process, its protocol, and the client stubs. Here the
//! [`remote_class!`](crate::remote_class) macro derives implementations of
//! these traits for every class, those that answer later included: a method
//! says what the dispatcher sends through [`Returns`].

use std::collections::HashMap;

use wire::{EncodesAs, Reader, Wire};

use crate::error::{RemoteError, RemoteResult};
use crate::frame::Body;
use crate::ids::ObjRef;
use crate::node::NodeCtx;

/// What a dispatched method produced.
#[derive(Debug)]
pub enum DispatchResult {
    /// Send this encoded return value back to the caller now: the response
    /// frame is finished in the body's own buffer.
    Reply(Body),
    /// Do not reply yet; the object took responsibility for replying later
    /// via [`NodeCtx::send_reply`] (e.g. a barrier parks callers until the
    /// last party arrives).
    NoReply,
}

impl DispatchResult {
    /// A method's own `DispatchResult` goes to the dispatcher as it is.
    /// Inherent, so it shadows [`Returns::into_dispatch`]: coherence
    /// refuses it as a second impl of that trait.
    #[doc(hidden)]
    #[inline]
    pub fn into_dispatch<T>(self, _ctx: &mut NodeCtx) -> DispatchResult {
        self
    }
}

/// What a class method declared to return `T` may return: anything that
/// [encodes as](EncodesAs) a `T`, the reply sent as the method returns; or a
/// [`DispatchResult`] itself, for a method that answers later
/// ([`NoReply`](DispatchResult::NoReply)) or passes on bytes it kept
/// ([`Body::relaying`]). How `remote_class!` turns a result into a reply,
/// encoded as [`Body::of_as`] would, in a spare frame of the lane serving
/// the call (`ctx`) when it has one.
pub trait Returns: Sized {
    /// The reply `self` makes as a `T`.
    #[inline]
    fn into_dispatch<T: Wire>(self, ctx: &mut NodeCtx) -> DispatchResult
    where
        Self: EncodesAs<T>,
    {
        DispatchResult::Reply(ctx.reply_body::<T, Self>(&self))
    }
}

impl<V> Returns for V {}

/// An object living on a machine, servable as a process.
///
/// Dispatch is **name-based**: the payload opens with the method name. A
/// derived class's dispatcher handles its own methods and falls through to
/// its base's dispatcher for the rest, which is what lets a base-class
/// remote pointer (`PageDeviceClient`) invoke methods on a derived object
/// (`ArrayPageDevice`) — the paper's §3 substitutability.
pub trait ServerObject: Send + 'static {
    /// The class name, as registered.
    fn class_name(&self) -> &'static str;

    /// Execute `method`, decoding arguments from `args`.
    fn dispatch_named(
        &mut self,
        ctx: &mut NodeCtx,
        method: &str,
        args: &mut Reader<'_>,
    ) -> RemoteResult<DispatchResult>;

    /// Serialize this object's state (persistence, §5). Classes declared
    /// `persistent` in `remote_class!` override this.
    fn snapshot_state(&self) -> RemoteResult<Vec<u8>> {
        Err(RemoteError::NotPersistent {
            class: self.class_name().to_string(),
        })
    }

    /// Method names this class declared side-effect-free via the
    /// `reads(...)` item in `remote_class!`. The runtime may serve these
    /// from a read replica (and may execute them more than once under
    /// replica fallback); every other verb is a write and always runs at
    /// the primary. Default: none — every verb is a write.
    fn read_verbs(&self) -> &'static [&'static str] {
        &[]
    }
}

/// A [`ServerObject`] that can be constructed remotely by class name.
pub trait ServerClass: ServerObject + Sized {
    /// The registered class name (`new(machine m) CLASS(...)`).
    const CLASS: &'static str;

    /// Run the constructor, decoding arguments from `args`. The constructor
    /// runs **on the hosting machine** and may itself perform remote calls
    /// through `ctx`.
    fn construct(ctx: &mut NodeCtx, args: &mut Reader<'_>) -> RemoteResult<Self>;

    /// Rebuild an instance from a snapshot (persistence, §5).
    fn restore(_ctx: &mut NodeCtx, _state: &[u8]) -> RemoteResult<Self> {
        Err(RemoteError::NotPersistent {
            class: Self::CLASS.to_string(),
        })
    }
}

/// A typed client handle generated by [`remote_class!`](crate::remote_class):
/// a remote pointer that knows its protocol.
pub trait RemoteClient: Clone {
    /// Class name this client speaks.
    const CLASS: &'static str;

    /// Client-side mirror of [`ServerObject::read_verbs`]: the verbs the
    /// routing layer may direct at a read replica. Populated by the
    /// `reads(...)` item in `remote_class!`; empty means write-everything.
    const READ_VERBS: &'static [&'static str] = &[];

    /// Wrap an existing reference (e.g. one received from another process).
    fn from_ref(r: ObjRef) -> Self;

    /// The underlying remote pointer.
    fn obj_ref(&self) -> ObjRef;
}

type CtorFn =
    Box<dyn Fn(&mut NodeCtx, &mut Reader<'_>) -> RemoteResult<Box<dyn ServerObject>> + Send + Sync>;
type RestoreFn =
    Box<dyn Fn(&mut NodeCtx, &[u8]) -> RemoteResult<Box<dyn ServerObject>> + Send + Sync>;

/// Maps class names to constructors — the set of classes a cluster can
/// instantiate. Built once by the [`ClusterBuilder`](crate::ClusterBuilder)
/// and shared read-only by every machine.
#[derive(Default)]
pub struct ClassRegistry {
    ctors: HashMap<&'static str, CtorFn>,
    restores: HashMap<&'static str, RestoreFn>,
}

impl std::fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassRegistry")
            .field("classes", &self.ctors.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ClassRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `T` for remote construction (and restoration, if `T`
    /// overrides [`ServerClass::restore`]).
    pub fn register<T: ServerClass>(&mut self) {
        self.ctors.insert(
            T::CLASS,
            Box::new(|ctx, args| Ok(Box::new(T::construct(ctx, args)?) as Box<dyn ServerObject>)),
        );
        self.restores.insert(
            T::CLASS,
            Box::new(|ctx, state| Ok(Box::new(T::restore(ctx, state)?) as Box<dyn ServerObject>)),
        );
    }

    /// All registered class names (sorted, for diagnostics).
    pub fn classes(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.ctors.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// True if `class` is known.
    pub fn contains(&self, class: &str) -> bool {
        self.ctors.contains_key(class)
    }

    /// Construct an instance of `class`.
    pub fn construct(
        &self,
        class: &str,
        ctx: &mut NodeCtx,
        args: &mut Reader<'_>,
    ) -> RemoteResult<Box<dyn ServerObject>> {
        let ctor = self
            .ctors
            .get(class)
            .ok_or_else(|| RemoteError::NoSuchClass {
                class: class.to_string(),
            })?;
        ctor(ctx, args)
    }

    /// Restore an instance of `class` from snapshot bytes.
    pub fn restore(
        &self,
        class: &str,
        ctx: &mut NodeCtx,
        state: &[u8],
    ) -> RemoteResult<Box<dyn ServerObject>> {
        let restore = self
            .restores
            .get(class)
            .ok_or_else(|| RemoteError::NoSuchClass {
                class: class.to_string(),
            })?;
        restore(ctx, state)
    }
}
