//! Loaded images: a compiled program with every method pre-decoded.
//!
//! A [`ProgramImage`] is what the compiler emits; a [`LoadedImage`] is the
//! same program after the one-time decode work — each method's instruction
//! stream lowered to the interpreter's fast-path form and its constant
//! table pre-classed. Bodies are position-independent (no memory
//! addresses), so a `LoadedImage` is immutable and shareable: wrap it in an
//! [`std::sync::Arc`] and any number of machines can be booted from it via
//! [`Machine::boot`](crate::Machine::boot) without compiling
//! or decoding anything — each machine only stores the code words into its
//! own object space and binds the shared bodies to the stored addresses.
//!
//! This is the engine-level substrate of the `com-vm` embedding facade
//! (one image, many cheap tenant sessions).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use com_cache::FxBuildHasher;
use com_fpa::{Fpa, FpaFormat};
use com_mem::{AbsAddr, ClassId, MemError, ObjectSpace, TeamId};
use com_obj::{ClassTable, DefinedMethod, MethodRef};

use crate::machine::{push_decoded, Decoded, DecodedBody};
use crate::{MachineConfig, ProgramImage};

/// A fully pre-booted machine state for one space geometry: the image's
/// code objects already stored into a pristine object space, the class
/// table already populated with resolved method references, and the
/// decoded-method slab laid out. Booting a session from the template is a
/// handful of clones — no allocation walk, no dictionary installs, no
/// decoding.
///
/// The template is geometry-specific (address format + space size); a
/// machine with a different geometry takes the store-per-method path
/// instead.
#[derive(Debug)]
pub(crate) struct BootTemplate {
    pub(crate) format: FpaFormat,
    pub(crate) space_log2: u8,
    /// The pre-stored space. Behind a mutex only so the template stays
    /// `Sync` (the space's bounds-check memo is interior-mutable); boots
    /// take the lock briefly to clone.
    pub(crate) space: Mutex<ObjectSpace>,
    pub(crate) classes: ClassTable,
    pub(crate) context_class: ClassId,
    pub(crate) code_roots: Vec<Fpa>,
    /// The decoded-method slab, bound to the template space's code.
    pub(crate) slab: Vec<Decoded>,
    /// Code virtual base → slab slot.
    pub(crate) index: HashMap<u64, u32, FxBuildHasher>,
}

impl BootTemplate {
    fn build(
        image: &ProgramImage,
        bodies: &[Option<Arc<DecodedBody>>],
        format: FpaFormat,
        space_log2: u8,
    ) -> Result<BootTemplate, MemError> {
        let mut space = ObjectSpace::new(space_log2, format);
        let mut classes = image.classes.clone();
        let context_class = context_class_in(&mut classes);
        let mut code_roots = Vec::new();
        let mut slab = Vec::new();
        let mut index: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
        store_and_install(
            &mut space,
            TeamId(0),
            &mut classes,
            image,
            |i| bodies[i].clone(),
            &mut code_roots,
            |base, abs, body| push_decoded(&mut slab, &mut index, Decoded { base, abs, body }),
        )?;
        Ok(BootTemplate {
            format,
            space_log2,
            space: Mutex::new(space),
            classes,
            context_class,
            code_roots,
            slab,
            index,
        })
    }
}

/// The class contexts take in a machine running `classes`: the table's
/// `Context`, defined under `Object` when the table has none.
pub(crate) fn context_class_in(classes: &mut ClassTable) -> ClassId {
    match classes.by_name("Context") {
        Some(c) => c,
        None => classes
            .define("Context", Some(ClassTable::OBJECT), 0)
            .expect("name free"),
    }
}

/// The one boot sequence for storing an image's methods into a machine's
/// space: store each code object, pin it as a GC root, bind its shared
/// pre-decoded body (when one exists) into the caller's slab via `bind`,
/// and install the (then pre-resolved) method reference. The template
/// build, `Machine::boot`'s store-per-method path and `Machine::load` run
/// exactly this function, so the boot paths cannot drift.
pub(crate) fn store_and_install(
    space: &mut ObjectSpace,
    team: TeamId,
    classes: &mut ClassTable,
    image: &ProgramImage,
    body_of: impl Fn(usize) -> Option<Arc<DecodedBody>>,
    code_roots: &mut Vec<Fpa>,
    mut bind: impl FnMut(Fpa, AbsAddr, Arc<DecodedBody>) -> u32,
) -> Result<(), MemError> {
    for (i, m) in image.methods.iter().enumerate() {
        let base = m.code.store(space, team)?;
        code_roots.push(base);
        let mut dm = DefinedMethod::new(base, m.code.n_args);
        if let Some(body) = body_of(i) {
            let base = base.base();
            let abs = space.translate(team, base)?.abs;
            dm = dm.resolved(bind(base, abs, body));
        }
        classes.install(m.class, m.selector, MethodRef::Defined(dm));
    }
    Ok(())
}

/// An immutable, shareable compiled program: the [`ProgramImage`] plus a
/// pre-decoded body for every method that can be decoded
/// position-independently, plus a pre-booted boot template (space with
/// code stored, installed class table, decoded slab) for the prepared
/// machine geometry.
#[derive(Debug)]
pub struct LoadedImage {
    image: ProgramImage,
    /// Parallel to `image.methods`: `None` when the method's constants
    /// need a machine to classify (pointer constants) and the owning
    /// machine must decode lazily instead.
    bodies: Vec<Option<Arc<DecodedBody>>>,
    /// Pre-booted state for the prepared geometry (absent only if the
    /// image cannot be stored in a space of that geometry).
    template: Option<BootTemplate>,
}

impl LoadedImage {
    /// Pre-decodes every method of `image` and pre-boots the default
    /// machine geometry. This is the one-time cost that
    /// [`Machine::boot`](crate::Machine::boot) amortises
    /// across machines.
    pub fn prepare(image: ProgramImage) -> LoadedImage {
        Self::prepare_for(image, &MachineConfig::default())
    }

    /// [`prepare`](Self::prepare) with the template pre-booted for
    /// `config`'s space geometry (sessions booting with a different
    /// geometry still work — they take the store-per-method path).
    pub fn prepare_for(image: ProgramImage, config: &MachineConfig) -> LoadedImage {
        let bodies: Vec<Option<Arc<DecodedBody>>> = image
            .methods
            .iter()
            .map(|m| DecodedBody::from_code(&m.code).map(Arc::new))
            .collect();
        let template = BootTemplate::build(&image, &bodies, config.format, config.space_log2).ok();
        LoadedImage {
            image,
            bodies,
            template,
        }
    }

    /// The pre-booted template, when it matches the asked-for geometry.
    pub(crate) fn template_for(&self, format: FpaFormat, space_log2: u8) -> Option<&BootTemplate> {
        self.template
            .as_ref()
            .filter(|t| t.format == format && t.space_log2 == space_log2)
    }

    /// The underlying compiled program.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// Number of methods in the image.
    pub fn methods(&self) -> usize {
        self.image.methods.len()
    }

    /// Number of methods with a shared pre-decoded body (the rest decode
    /// lazily, per machine).
    pub fn predecoded(&self) -> usize {
        self.bodies.iter().filter(|b| b.is_some()).count()
    }

    /// The shared body for method `i`, if it decoded position-independently.
    pub(crate) fn body(&self, i: usize) -> Option<Arc<DecodedBody>> {
        self.bodies.get(i).and_then(|b| b.clone())
    }
}

impl From<ProgramImage> for LoadedImage {
    fn from(image: ProgramImage) -> Self {
        LoadedImage::prepare(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::{Assembler, Opcode, Operand};
    use com_mem::{ClassId, Word};

    fn sample_image() -> ProgramImage {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("double").unwrap();
        let mut asm = Assembler::new("SmallInteger>>double", 1);
        let k2 = asm.intern_const(Word::Int(2)).unwrap();
        asm.emit_three(
            Opcode::MUL,
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Const(k2),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        img
    }

    #[test]
    fn prepare_predecodes_every_plain_method() {
        let li = LoadedImage::prepare(sample_image());
        assert_eq!(li.methods(), 1);
        assert_eq!(li.predecoded(), 1);
        assert!(li.body(0).is_some());
        assert!(li.body(1).is_none());
    }

    #[test]
    fn loaded_image_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<LoadedImage>();
    }
}
