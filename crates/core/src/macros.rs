//! `remote_class!` — the stand-in for the paper's compiler.
//!
//! §2 of the paper: *"The client-server protocol is generated by the
//! compiler from the class description. … Development of communication
//! protocols, assembly and parsing of messages … is relegated to the
//! compiler."* There is no such compiler (the paper says so itself), so this
//! macro performs the same mechanical derivation from a class description:
//!
//! * a **server dispatcher** (`ServerObject` + `ServerClass` impls) that
//!   decodes method names and arguments and invokes the user's inherent
//!   methods;
//! * a **typed client** (`{Name}Client`) — the paper's remote pointer —
//!   with one synchronous and one `_async` stub per method, plus
//!   `new_on` / `new_on_async` (the paper's `new(machine i) T(...)`) and
//!   `destroy` (the paper's `delete`);
//! * wire-encodability for the client, so remote pointers can be passed to
//!   other processes (§4's `SetGroup`).
//!
//! # Contract with the user type
//!
//! For `class Foo { ctor(a: A); fn m(&mut self, x: X) -> Y; }` the struct
//! `Foo` must provide inherent methods:
//!
//! ```text
//! fn new(ctx: &mut NodeCtx, a: A) -> RemoteResult<Foo>;
//! fn m(&mut self, ctx: &mut NodeCtx, x: X) -> RemoteResult<Y>;
//! ```
//!
//! The class description fixes the **wire** and the client stubs; the
//! inherent method may ask for less. It may take, in place of a declared
//! argument `X`, any [`ViewOf<X>`](wire::ViewOf) — the argument left where
//! it arrived, in the request — and return, in place of `Y`, anything that
//! [`EncodesAs<Y>`](wire::EncodesAs) — a borrow of the object's own state,
//! written straight into the reply. The one generated dispatcher decodes
//! each argument as the type the method's signature names and encodes what
//! the method returns (both by inference), so a bulk verb costs no copy and
//! no allocation of the server's own:
//!
//! ```text
//! class DoubleBlock {
//!     fn read_range(&mut self, start: usize, len: usize) -> F64s;
//!     fn write_range(&mut self, start: usize, data: F64s) -> ();
//! }
//! fn read_range(&mut self, ctx: &mut NodeCtx, start: usize, len: usize) -> RemoteResult<&[f64]>;
//! fn write_range(&mut self, ctx: &mut NodeCtx, start: usize, data: F64sView<'_>) -> RemoteResult<()>;
//! ```
//!
//! `DoubleBlockClient::read_range` still returns `F64s` and `write_range`
//! still takes one; the bytes on the wire are the same. A view is checked
//! as its owned type is (a declared count against the bytes present)
//! before the method runs, and borrows the request, which outlives the
//! method whatever calls it makes meanwhile. A method that keeps or changes
//! the argument takes the owned type, as every method did before.
//!
//! # Deferred and relayed replies
//!
//! A method may also return the [`DispatchResult`](crate::DispatchResult)
//! itself, whatever its declared type ([`Returns`](crate::process::Returns)):
//!
//! * `NoReply` when it answers later: it keeps its
//!   [`current_call`](crate::NodeCtx::current_call) and calls
//!   [`send_reply`](crate::NodeCtx::send_reply) with the declared type
//!   (the group `Barrier`'s `enter`);
//! * `Reply(Body::relaying(kept))` to send on, where they arrived, bytes of
//!   a request it kept with [`request_bytes`](crate::NodeCtx::request_bytes)
//!   (the FFT `BlockInbox`'s `take`; its `put` takes a view that records
//!   the block's byte range).
//!
//! The client stubs do not change: a caller waits for a deferred reply
//! like any other.
//!
//! # Inheritance (§3)
//!
//! `class Derived: Base { ... }` requires the struct `Derived` to have a
//! field `base: Base`. Method dispatch falls through to the base for any
//! name the derived class does not define, so a **base-class client may
//! point at a derived object** — the paper's `ArrayPageDevice` is usable
//! wherever a `PageDevice` pointer is expected. `DerivedClient::as_base()`
//! gives the base-typed view of the same remote object.
//!
//! # Persistence (§5)
//!
//! Adding `persistent;` as the first item wires snapshot/restore to two
//! further inherent methods:
//!
//! ```text
//! fn save_state(&self) -> Vec<u8>;
//! fn load_state(ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Foo>;
//! ```
//!
//! # Read/write verbs (replication)
//!
//! A `reads(m1, m2, ...);` item (after `persistent;` if present, before
//! `ctor`) declares those methods **side-effect-free reads**: the runtime
//! may serve them from any read replica of the object, and may re-execute
//! them at the primary if a replica turns out stale — so they must not
//! mutate state or perform external effects. Every method *not* listed is
//! a write and always executes at the primary. The list is exported as
//! `{Name}Client::READ_VERBS` (client routing) and
//! [`ServerObject::read_verbs`](crate::ServerObject::read_verbs) (server
//! enforcement). See DESIGN.md §11.

/// Derive the remote protocol, server dispatcher, and typed client for a
/// class description. See the [module documentation](self) for the full
/// contract.
#[macro_export]
macro_rules! remote_class {
    // Entry arm: `persistent;` + `reads(...)` markers — normalize and
    // delegate. Must precede the bare-persistent arm, whose `$($body:tt)*`
    // would otherwise swallow the `reads` item.
    (
        $(#[$meta:meta])*
        class $name:ident $(: $base:ident)? {
            persistent;
            reads( $($readv:ident),* $(,)? );
            $($body:tt)*
        }
    ) => {
        $crate::remote_class! {
            @impl [persistent] [$($readv)*]
            $(#[$meta])*
            class $name $(: $base)? { $($body)* }
        }
    };

    // Entry arm: `persistent;` marker present — normalize and delegate.
    (
        $(#[$meta:meta])*
        class $name:ident $(: $base:ident)? {
            persistent;
            $($body:tt)*
        }
    ) => {
        $crate::remote_class! {
            @impl [persistent] []
            $(#[$meta])*
            class $name $(: $base)? { $($body)* }
        }
    };

    // Entry arm: `reads(...)` without persistence — normalize and delegate.
    (
        $(#[$meta:meta])*
        class $name:ident $(: $base:ident)? {
            reads( $($readv:ident),* $(,)? );
            $($body:tt)*
        }
    ) => {
        $crate::remote_class! {
            @impl [] [$($readv)*]
            $(#[$meta])*
            class $name $(: $base)? { $($body)* }
        }
    };

    // Entry arm: no marker — normalize and delegate.
    (
        $(#[$meta:meta])*
        class $name:ident $(: $base:ident)? {
            ctor $($body:tt)*
        }
    ) => {
        $crate::remote_class! {
            @impl [] []
            $(#[$meta])*
            class $name $(: $base)? { ctor $($body)* }
        }
    };

    // Implementation arm.
    (
        @impl [$($persist:ident)?] [$($readv:ident)*]
        $(#[$meta:meta])*
        class $name:ident $(: $base:ident)? {
            ctor( $($carg:ident : $cty:ty),* $(,)? );
            $(
                $(#[$mmeta:meta])*
                fn $method:ident(&mut self $(, $marg:ident : $mty:ty)* $(,)?) -> $ret:ty;
            )*
        }
    ) => {
        $crate::paste::paste! {
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            pub struct [<$name Client>] {
                r: $crate::ObjRef,
            }

            // Generated stubs mirror the whole class interface; a given
            // program rarely calls every one.
            #[allow(dead_code)]
            impl [<$name Client>] {
                #[doc = concat!("`new(machine m) ", stringify!($name), "(...)`: construct the object on `machine` and wait for the constructor to finish (§2).")]
                #[allow(clippy::too_many_arguments)]
                pub fn new_on(
                    ctx: &mut $crate::NodeCtx,
                    machine: usize,
                    $($carg: $cty),*
                ) -> $crate::RemoteResult<Self> {
                    #[allow(unused_mut)]
                    let mut w = $crate::wire::Writer::new();
                    $( $crate::wire::Wire::encode(&$carg, &mut w); )*
                    ctx.create::<Self>(machine, w.into_bytes())
                }

                #[doc = concat!("Asynchronous `new(machine m) ", stringify!($name), "(...)`: issue the construction and return a pending client (§4).")]
                #[allow(clippy::too_many_arguments)]
                pub fn new_on_async(
                    ctx: &mut $crate::NodeCtx,
                    machine: usize,
                    $($carg: $cty),*
                ) -> $crate::RemoteResult<$crate::PendingClient<Self>> {
                    #[allow(unused_mut)]
                    let mut w = $crate::wire::Writer::new();
                    $( $crate::wire::Wire::encode(&$carg, &mut w); )*
                    ctx.create_async::<Self>(machine, w.into_bytes())
                }

                /// `delete ptr`: run the remote destructor, terminating the
                /// object's process (§2).
                pub fn destroy(self, ctx: &mut $crate::NodeCtx) -> $crate::RemoteResult<()> {
                    ctx.destroy(self.r)
                }

                /// Machine hosting the remote object.
                pub fn machine(&self) -> usize {
                    self.r.machine
                }

                $(
                    #[doc = concat!("View this remote object through its `", stringify!($base), "` interface (§3 substitutability).")]
                    pub fn as_base(&self) -> [<$base Client>] {
                        <[<$base Client>] as $crate::RemoteClient>::from_ref(self.r)
                    }
                )?

                $(
                    $(#[$mmeta])*
                    #[allow(clippy::too_many_arguments)]
                    pub fn $method(
                        &self,
                        ctx: &mut $crate::NodeCtx,
                        $($marg: $mty),*
                    ) -> $crate::RemoteResult<$ret> {
                        ctx.call_method(self.r, stringify!($method), |w| {
                            let _ = &w;
                            $( $crate::wire::Wire::encode(&$marg, w); )*
                        })
                    }

                    #[doc = concat!("Asynchronous `", stringify!($method), "`: issue the call now, collect the reply later (§4 split loop).")]
                    #[allow(clippy::too_many_arguments)]
                    pub fn [<$method _async>](
                        &self,
                        ctx: &mut $crate::NodeCtx,
                        $($marg: $mty),*
                    ) -> $crate::RemoteResult<$crate::Pending<$ret>> {
                        ctx.start_method(self.r, stringify!($method), move |w| {
                            let _ = &w;
                            $( $crate::wire::Wire::encode(&$marg, w); )*
                        })
                    }
                )*
            }

            impl $crate::RemoteClient for [<$name Client>] {
                const CLASS: &'static str = stringify!($name);
                const READ_VERBS: &'static [&'static str] =
                    &[$(stringify!($readv)),*];
                fn from_ref(r: $crate::ObjRef) -> Self {
                    Self { r }
                }
                fn obj_ref(&self) -> $crate::ObjRef {
                    self.r
                }
            }

            // Remote pointers travel the wire (§4: SetGroup receives an
            // array of remote pointers).
            impl $crate::wire::Wire for [<$name Client>] {
                fn encode(&self, w: &mut $crate::wire::Writer) {
                    $crate::wire::Wire::encode(&self.r, w);
                }
                fn decode(
                    r: &mut $crate::wire::Reader<'_>,
                ) -> $crate::wire::WireResult<Self> {
                    Ok(Self { r: <$crate::ObjRef as $crate::wire::Wire>::decode(r)? })
                }
            }

            $(
                impl From<[<$name Client>]> for [<$base Client>] {
                    fn from(c: [<$name Client>]) -> Self {
                        c.as_base()
                    }
                }
            )?

            impl $crate::ServerClass for $name {
                const CLASS: &'static str = stringify!($name);

                fn construct(
                    ctx: &mut $crate::NodeCtx,
                    args: &mut $crate::wire::Reader<'_>,
                ) -> $crate::RemoteResult<Self> {
                    let _ = &args;
                    $( let $carg = <$cty as $crate::wire::Wire>::decode(args)?; )*
                    Self::new(ctx, $($carg),*)
                }

                $(
                    fn restore(
                        ctx: &mut $crate::NodeCtx,
                        state: &[u8],
                    ) -> $crate::RemoteResult<Self> {
                        $crate::__assert_persistent!($persist);
                        Self::load_state(ctx, state)
                    }
                )?
            }

            impl $crate::ServerObject for $name {
                fn class_name(&self) -> &'static str {
                    stringify!($name)
                }

                fn dispatch_named(
                    &mut self,
                    ctx: &mut $crate::NodeCtx,
                    method: &str,
                    args: &mut $crate::wire::Reader<'_>,
                ) -> $crate::RemoteResult<$crate::DispatchResult> {
                    let _ = &args;
                    match method {
                        $(
                            stringify!($method) => {
                                // The method's own signature picks, by
                                // inference, what each argument is decoded
                                // as and what is encoded as the result.
                                $( let $marg = <_ as $crate::wire::ViewOf<'_, $mty>>::view(args)?; )*
                                let ret = self.$method(ctx, $($marg),*)?;
                                #[allow(unused_imports)]
                                use $crate::process::Returns as _;
                                Ok(ret.into_dispatch::<$ret>(ctx))
                            }
                        )*
                        _ => $crate::__dispatch_fallthrough!(
                            stringify!($name), self, ctx, method, args $(, $base)?
                        ),
                    }
                }

                $(
                    fn snapshot_state(&self) -> $crate::RemoteResult<Vec<u8>> {
                        $crate::__assert_persistent!($persist);
                        Ok(self.save_state())
                    }
                )?

                fn read_verbs(&self) -> &'static [&'static str] {
                    &[$(stringify!($readv)),*]
                }
            }
        }
    };
}

/// Internal: base-class fallthrough for method dispatch.
#[doc(hidden)]
#[macro_export]
macro_rules! __dispatch_fallthrough {
    ($class:expr, $obj:expr, $ctx:expr, $method:expr, $args:expr, $base:ident) => {
        $crate::ServerObject::dispatch_named(&mut $obj.base, $ctx, $method, $args)
    };
    ($class:expr, $obj:expr, $ctx:expr, $method:expr, $args:expr) => {
        Err($crate::RemoteError::NoSuchMethod {
            class: $class.to_string(),
            method: $method.to_string(),
        })
    };
}

/// Internal: the optional marker before `ctor` must be the word
/// `persistent`.
#[doc(hidden)]
#[macro_export]
macro_rules! __assert_persistent {
    (persistent) => {};
    ($other:ident) => {
        compile_error!(concat!(
            "unknown class marker `",
            stringify!($other),
            "`; the only supported marker is `persistent;`"
        ));
    };
}
